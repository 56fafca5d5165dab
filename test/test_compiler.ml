(* Tests for wn.compiler: layouts, the WN transformation passes, code
   generation and the end-to-end compile pipeline. *)

open Wn_compiler

(* ---------------- Layout ---------------- *)

let test_layout_row_major () =
  let l = Layout.row_major Wn_lang.Ast.U16 in
  let vals = [| 1; 2; 0xFFFF |] in
  let buf = Layout.encode l vals in
  Alcotest.(check int) "bytes" 6 (Bytes.length buf);
  Alcotest.(check bool) "round trip" true (Layout.decode l ~count:3 buf = vals)

let test_layout_subword_major_structure () =
  let l =
    Layout.subword_major ~elem_bits:32 ~signed:false ~bits:8 ~lane_bits:8
      ~count:4 ()
  in
  Alcotest.(check int) "planes" 4 (Layout.planes l);
  Alcotest.(check int) "lanes per word" 4 (Layout.lanes_per_word l);
  Alcotest.(check int) "words per plane" 1 (Layout.words_per_plane l ~count:4);
  Alcotest.(check int) "storage" 16 (Layout.storage_bytes l ~count:4);
  (* With 4 elements of 4 lanes, plane p's single word holds the
     elements' p-th bytes. *)
  let vals = [| 0x44332211; 0x88776655; 0xCCBBAA99; 0x00FFEEDD |] in
  let buf = Layout.encode l vals in
  let word p = Int32.to_int (Bytes.get_int32_le buf (4 * p)) land 0xFFFFFFFF in
  Alcotest.(check int) "LS plane word" 0xDD995511 (word 0);
  Alcotest.(check int) "MS plane word" 0x00CC8844 (word 3);
  Alcotest.(check bool) "decode inverts" true (Layout.decode l ~count:4 buf = vals)

let test_layout_provisioned_lanes () =
  let l =
    Layout.subword_major ~elem_bits:32 ~signed:false ~bits:8 ~lane_bits:16
      ~count:4 ()
  in
  Alcotest.(check int) "2 lanes per word" 2 (Layout.lanes_per_word l);
  Alcotest.(check int) "double storage" 32 (Layout.storage_bytes l ~count:4)

let test_layout_biased () =
  let l =
    Layout.subword_major ~biased:true ~elem_bits:32 ~signed:true ~bits:8
      ~lane_bits:16 ~count:2 ()
  in
  let minus_five = (-5) land 0xFFFFFFFF in
  let vals = [| minus_five; 7 |] in
  let buf = Layout.encode l vals in
  Alcotest.(check bool) "biased round trip" true
    (Layout.decode l ~count:2 buf = vals);
  Alcotest.(check bool) "signed decode" true
    (Layout.decode_signed l ~count:2 buf = [| -5; 7 |])

let prop_layout_roundtrip =
  QCheck.Test.make ~count:300 ~name:"subword-major encode/decode round-trips"
    QCheck.(
      triple
        (array_of_size (QCheck.Gen.return 8) (int_bound 0xFFFFFF))
        (oneofl [ (4, 4); (4, 8); (8, 8); (8, 16); (16, 16); (16, 32) ])
        bool)
    (fun (vals, (bits, lanes), biased) ->
      let l =
        Layout.subword_major ~biased ~elem_bits:32 ~signed:false ~bits
          ~lane_bits:lanes ~count:8 ()
      in
      Layout.decode l ~count:8 (Layout.encode l vals) = vals)

(* ---------------- helpers: compile and execute ---------------- *)

let execute ?(machine_config = Wn_machine.Machine.default_config) compiled inputs
    =
  let mem =
    Wn_mem.Memory.create ~size:(compiled.Compile.data_bytes + 64)
  in
  List.iter
    (fun (name, vals) ->
      let s = Compile.symbol compiled name in
      Wn_mem.Memory.blit_in mem ~addr:s.Compile.sym_addr
        (Layout.encode s.Compile.sym_layout vals))
    inputs;
  let machine =
    Wn_machine.Machine.create ~config:machine_config
      ~program:compiled.Compile.program ~mem ()
  in
  let o =
    Wn_runtime.Executor.run ~machine ~supply:(Wn_power.Supply.always_on ()) ()
  in
  Alcotest.(check bool) "completed" true o.Wn_runtime.Executor.completed;
  (machine, mem, o)

let read_array compiled mem name count =
  let s = Compile.symbol compiled name in
  Layout.decode_signed s.Compile.sym_layout ~count
    (Wn_mem.Memory.region mem ~addr:s.Compile.sym_addr
       ~len:(Layout.storage_bytes s.Compile.sym_layout ~count))

(* ---------------- codegen: arithmetic equivalence ---------------- *)

(* A kernel exercising the expression corners; verified against its
   OCaml transliteration. *)
let arith_src =
  {|
uint16 a[8];
int16 s[8];
uint32 x[8];

kernel arith() {
  for (i = 0; i < 8; i += 1) {
    int32 v = a[i];
    int32 w = s[i];
    int32 t = ((v * 3) + (w << 2)) - (v >> 1);
    int32 u = (t & 255) | (v ^ 99);
    if (u > 1000) {
      x[i] = u - 1000;
    } else {
      if (u == 0) { x[i] = 7; } else { x[i] = u + (0 - w); }
    }
  }
}
|}

let arith_reference a s =
  Array.init 8 (fun i ->
      let v = a.(i) in
      let w = s.(i) in
      let t = v * 3 + (w lsl 2) - (v asr 1) in
      let u = t land 255 lor (v lxor 99) in
      let r = if u > 1000 then u - 1000 else if u = 0 then 7 else u + (0 - w) in
      r land 0xFFFFFFFF)

let test_codegen_arith () =
  let compiled = Compile.compile_source ~options:Compile.precise arith_src in
  let a = [| 5; 1000; 0; 65535; 123; 42; 9; 31000 |] in
  let s = [| 3; -3; 0; -32768; 32767; -1; 100; -999 |] in
  let s_patterns = Array.map (fun v -> v land 0xFFFF) s in
  let _, mem, _ = execute compiled [ ("a", a); ("s", s_patterns) ] in
  let got = Array.map (fun v -> v land 0xFFFFFFFF) (read_array compiled mem "x" 8) in
  Alcotest.(check bool) "matches OCaml reference" true (got = arith_reference a s)

(* ---------------- SWP transform ---------------- *)

let swp_src bits =
  Printf.sprintf
    {|
#pragma asp input(a, %d)
#pragma asp output(x)
uint16 a[16];
uint16 f[16];
uint32 x[16];
kernel axpy() {
  anytime {
    for (i = 0; i < 16; i += 1) {
      x[i] = f[i] * a[i];
    }
  } commit { }
}
|}
    bits

let test_swp_exact_for_all_widths () =
  let rng = Wn_util.Rng.create 99 in
  let a = Array.init 16 (fun _ -> Wn_util.Rng.int rng 0x10000) in
  let f = Array.init 16 (fun _ -> Wn_util.Rng.int rng 0x8000) in
  let expect = Array.map2 (fun x y -> x * y land 0xFFFFFFFF) f a in
  List.iter
    (fun bits ->
      let compiled =
        Compile.compile_source ~options:Compile.anytime (swp_src bits)
      in
      let _, mem, _ = execute compiled [ ("a", a); ("f", f) ] in
      let got =
        Array.map (fun v -> v land 0xFFFFFFFF) (read_array compiled mem "x" 16)
      in
      if got <> expect then Alcotest.failf "SWP %d-bit diverges" bits)
    [ 1; 2; 3; 4; 8; 16 ]

let test_swp_emits_skims_and_stages () =
  let compiled = Compile.compile_source ~options:Compile.anytime (swp_src 4) in
  let skims = ref 0 and asp = ref 0 in
  Array.iter
    (fun i ->
      match i with
      | Wn_isa.Instr.Skm _ -> incr skims
      | Wn_isa.Instr.Mul_asp _ -> incr asp
      | _ -> ())
    compiled.Compile.program;
  (* 4 replicas: a MUL_ASP each; a skim point after every non-final one. *)
  Alcotest.(check int) "three skim points" 3 !skims;
  Alcotest.(check int) "four pipeline stages" 4 !asp;
  (* The precise build has none of either. *)
  let precise = Compile.compile_source ~options:Compile.precise (swp_src 4) in
  Array.iter
    (fun i ->
      match i with
      | Wn_isa.Instr.Skm _ | Wn_isa.Instr.Mul_asp _ ->
          Alcotest.fail "WN instruction in precise build"
      | _ -> ())
    precise.Compile.program

let test_swp_cold_statement_runs_once () =
  (* The exact running sum sharing the fissioned loop must execute only
     in the first replica — otherwise it double-counts. *)
  let src =
    {|
#pragma asp input(a, 8)
#pragma asp output(x)
uint16 a[8];
uint32 x[8];
uint32 sums[1];
kernel k() {
  int32 s = 0;
  anytime {
    for (i = 0; i < 8; i += 1) {
      s += a[i];
      x[i] = a[i] * a[i];
    }
  } commit {
    sums[0] = s;
  }
}
|}
  in
  let compiled = Compile.compile_source ~options:Compile.anytime src in
  let a = Array.init 8 (fun i -> (i + 1) * 111) in
  let _, mem, _ = execute compiled [ ("a", a) ] in
  let total = Array.fold_left ( + ) 0 a in
  Alcotest.(check int) "sum counted once" total
    (read_array compiled mem "sums" 1).(0);
  let sq = Array.map (fun v -> v * v land 0xFFFFFFFF) a in
  Alcotest.(check bool) "squares exact" true
    (Array.map (fun v -> v land 0xFFFFFFFF) (read_array compiled mem "x" 8) = sq)

(* ---------------- SWV transforms ---------------- *)

let swv_elementwise_src ~prov op =
  Printf.sprintf
    {|
#pragma asv input(a, 8%s)
#pragma asv input(b, 8%s)
#pragma asv output(x, 8%s)
uint32 a[16];
uint32 b[16];
uint32 x[16];
kernel ew() {
  anytime {
    for (i = 0; i < 16; i += 1) { x[i] = a[i] %s b[i]; }
  } commit { }
}
|}
    (if prov then ", provisioned" else "")
    (if prov then ", provisioned" else "")
    (if prov then ", provisioned" else "")
    op

let test_swv_elementwise_ops () =
  let rng = Wn_util.Rng.create 5 in
  let a = Array.init 16 (fun _ -> Wn_util.Rng.int rng 0x3FFFFFFF) in
  let b = Array.init 16 (fun _ -> Wn_util.Rng.int rng 0x3FFFFFFF) in
  let cases =
    [
      ("+", true, fun x y -> (x + y) land 0xFFFFFFFF);
      ("&", false, fun x y -> x land y);
      ("|", false, fun x y -> x lor y);
      ("^", false, fun x y -> x lxor y);
    ]
  in
  List.iter
    (fun (op, prov, f) ->
      let compiled =
        Compile.compile_source ~options:Compile.anytime
          (swv_elementwise_src ~prov op)
      in
      let _, mem, _ = execute compiled [ ("a", a); ("b", b) ] in
      let got =
        Array.map (fun v -> v land 0xFFFFFFFF) (read_array compiled mem "x" 16)
      in
      if got <> Array.map2 f a b then Alcotest.failf "SWV %s diverges" op)
    cases

let test_swv_unprovisioned_drops_carries () =
  let compiled =
    Compile.compile_source ~options:Compile.anytime
      (swv_elementwise_src ~prov:false "+")
  in
  (* 0x...FF + 1 carries across every byte boundary: the unprovisioned
     adder must lose them. *)
  let a = Array.make 16 0x00FF00FF and b = Array.make 16 0x01010101 in
  let _, mem, _ = execute compiled [ ("a", a); ("b", b) ] in
  let got = (read_array compiled mem "x" 16).(0) land 0xFFFFFFFF in
  Alcotest.(check int) "carries dropped" 0x01000100 got

let test_swv_reduction_banked () =
  let src =
    {|
#pragma asv input(a, 8, provisioned)
uint32 a[256];
uint32 o[1];
kernel red() {
  anytime {
    int32 s = 0;
    for (i = 0; i < 256; i += 1) { s += a[i]; }
  } commit { o[0] = s >> 8; }
}
|}
  in
  let compiled = Compile.compile_source ~options:Compile.anytime src in
  let rng = Wn_util.Rng.create 17 in
  let a = Array.init 256 (fun _ -> Wn_util.Rng.int rng 0x7FFFFF) in
  let _, mem, _ = execute compiled [ ("a", a) ] in
  Alcotest.(check int) "banked reduction exact"
    (Array.fold_left ( + ) 0 a asr 8)
    (read_array compiled mem "o" 1).(0)

let test_swv_windowed_reduction () =
  let src =
    {|
#pragma asv input(d, 8, provisioned)
int32 d[128];
int32 o[4];
kernel wred() {
  anytime {
    for (z = 0; z < 4; z += 1) {
      int32 zb = z * 32;
      int32 s = 0;
      for (i = 0; i < 32; i += 1) { s += d[zb + i]; }
      o[z] = s;
    }
  } commit { }
}
|}
  in
  let compiled = Compile.compile_source ~options:Compile.anytime src in
  (* Signed data: storage must be offset-binary. *)
  (match (Compile.symbol compiled "d").Compile.sym_layout with
  | Layout.Subword_major { biased = true; _ } -> ()
  | l -> Alcotest.failf "expected biased subword-major storage, got %a" Layout.pp l);
  let rng = Wn_util.Rng.create 23 in
  let d = Array.init 128 (fun _ -> Wn_util.Rng.int rng 2_000_001 - 1_000_000) in
  let patterns = Array.map (fun v -> v land 0xFFFFFFFF) d in
  let _, mem, _ = execute compiled [ ("d", patterns) ] in
  let expect =
    Array.init 4 (fun z ->
        let s = ref 0 in
        for i = 0 to 31 do
          s := !s + d.((z * 32) + i)
        done;
        !s)
  in
  Alcotest.(check bool) "windowed signed sums exact" true
    (read_array compiled mem "o" 4 = expect)

(* ---------------- anytime square root (footnote 3) ---------------- *)

let sqrt_src bits =
  Printf.sprintf
    {|
#pragma asp output(o, %d)
uint32 a[8];
uint16 o[8];
kernel roots() {
  anytime {
    for (i = 0; i < 8; i += 1) {
      o[i] = sqrt(a[i]);
    }
  } commit { }
}
|}
    bits

let test_sqrt_schema () =
  let compiled = Compile.compile_source ~options:Compile.anytime (sqrt_src 4) in
  let stages = ref [] and fulls = ref 0 and skims = ref 0 in
  Array.iter
    (fun i ->
      match i with
      | Wn_isa.Instr.Sqrt_asp { bits; _ } -> stages := bits :: !stages
      | Wn_isa.Instr.Sqrt _ -> incr fulls
      | Wn_isa.Instr.Skm _ -> incr skims
      | _ -> ())
    compiled.Compile.program;
  (* 4-bit stages: 4, 8, 12 then the exact 16-bit root; a skim point
     between every pair of replicas. *)
  Alcotest.(check (list int)) "stage widths" [ 4; 8; 12 ] (List.rev !stages);
  Alcotest.(check int) "one exact root" 1 !fulls;
  Alcotest.(check int) "three skim points" 3 !skims;
  (* and it converges to the precise result *)
  let rng = Wn_util.Rng.create 8 in
  let a = Array.init 8 (fun _ -> Wn_util.Rng.int rng 0x3FFFFFFF) in
  let _, mem, _ = execute compiled [ ("a", a) ] in
  let expect =
    Array.map
      (fun n ->
        let r = ref 0 in
        for b = 15 downto 0 do
          let c = !r lor (1 lsl b) in
          if c * c <= n then r := c
        done;
        !r)
      a
  in
  Alcotest.(check bool) "roots exact" true (read_array compiled mem "o" 8 = expect)

let test_sqrt_schema_rejects_accumulation () =
  let src =
    {|
#pragma asp output(o, 4)
uint32 a[8];
uint32 o[8];
kernel k() {
  anytime {
    for (i = 0; i < 8; i += 1) {
      o[i] += sqrt(a[i]);
    }
  } commit { }
}
|}
  in
  match Compile.compile_source ~options:Compile.anytime src with
  | exception Compile.Error _ -> ()
  | _ -> Alcotest.fail "accumulating sqrt region accepted"

(* ---------------- vectorized loads (Figure 12) ---------------- *)

let vec_src =
  {|
#pragma asp input(b, 8)
#pragma asp output(x)
#pragma asv input(b, 8)
uint16 a[64];
uint16 b[64];
uint32 x[64];
kernel dotish() {
  anytime {
    for (i = 0; i < 64; i += 1) {
      int32 acc = 0;
      int32 row = 0;
      for (k = 0; k < 64; k += 1) {
        acc += a[k] * b[row + k];
      }
      x[i] = acc;
    }
  } commit { }
}
|}

let test_vector_loads_equivalent_and_faster () =
  let plain = Compile.compile_source ~options:Compile.anytime vec_src in
  let vec =
    Compile.compile_source ~options:Compile.anytime_vector_loads vec_src
  in
  let rng = Wn_util.Rng.create 31 in
  let a = Array.init 64 (fun _ -> Wn_util.Rng.int rng 4096) in
  let b = Array.init 64 (fun _ -> Wn_util.Rng.int rng 4096) in
  let m1, mem1, _ = execute plain [ ("a", a); ("b", b) ] in
  let m2, mem2, _ = execute vec [ ("a", a); ("b", b) ] in
  Alcotest.(check bool) "same outputs" true
    (read_array plain mem1 "x" 64 = read_array vec mem2 "x" 64);
  let c1 = Wn_machine.Machine.cycles_executed m1 in
  let c2 = Wn_machine.Machine.cycles_executed m2 in
  if c2 >= c1 then
    Alcotest.failf "vectorized loads not faster: %d vs %d" c2 c1

(* ---------------- error reporting ---------------- *)

let expect_compile_error ?(options = Compile.anytime) src =
  match Compile.compile_source ~options src with
  | exception Compile.Error _ -> ()
  | _ -> Alcotest.failf "compile accepted:\n%s" src

let test_transform_errors () =
  (* anytime block with no loop *)
  expect_compile_error
    "#pragma asp input(a, 8)\nuint16 a[4];\nuint32 x[1];\nkernel k() { anytime { x[0] = a[0] * a[0]; } commit { } }";
  (* commit writing pipelined state *)
  expect_compile_error
    {|
#pragma asp input(a, 8)
#pragma asp output(x)
uint16 a[4];
uint32 x[4];
kernel k() {
  anytime {
    for (i = 0; i < 4; i += 1) { x[i] = a[i] * a[i]; }
  } commit { x[0] = 0; }
}
|};
  (* SWV count not divisible into lanes *)
  expect_compile_error
    "#pragma asv input(a, 8, provisioned)\n#pragma asv output(x, 8, provisioned)\nuint32 a[3];\nuint32 x[3];\nkernel k() { anytime { for (i = 0; i < 3; i += 1) { x[i] = a[i] + a[i]; } } commit { } }";
  (* unprovisioned reduction *)
  expect_compile_error
    "#pragma asv input(a, 8)\nuint32 a[8];\nuint32 o[1];\nkernel k() { anytime { int32 s = 0; for (i = 0; i < 8; i += 1) { s += a[i]; } } commit { o[0] = s; } }";
  (* mixed subword sizes in one block *)
  expect_compile_error
    {|
#pragma asp input(a, 8)
#pragma asp input(b, 4)
#pragma asp output(x)
uint16 a[4];
uint16 b[4];
uint32 x[4];
kernel k() {
  anytime {
    for (i = 0; i < 4; i += 1) { x[i] = a[i] * b[i]; }
  } commit { }
}
|}

let test_codegen_errors () =
  (* register exhaustion: too many live locals *)
  expect_compile_error ~options:Compile.precise
    {|
kernel k() {
  int32 a = 1; int32 b = 2; int32 c = 3; int32 d = 4;
  int32 e = 5; int32 f = 6; int32 g = 7; int32 h = 8;
  a = b + c + d + e + f + g + h;
}
|}

let test_compile_metadata () =
  let compiled = Compile.compile_source ~options:Compile.anytime (swp_src 8) in
  Alcotest.(check bool) "code size positive" true
    (Compile.code_size_bytes compiled > 0);
  Alcotest.(check bool) "data segment covers arrays" true
    (compiled.Compile.data_bytes >= (16 * 2) + (16 * 2) + (16 * 4));
  (* Anytime code is larger than precise but within the paper's "small
     increase" narrative. *)
  let precise = Compile.compile_source ~options:Compile.precise (swp_src 8) in
  let ratio =
    float_of_int (Compile.code_size_bytes compiled)
    /. float_of_int (Compile.code_size_bytes precise)
  in
  if ratio < 1.0 || ratio > 4.0 then
    Alcotest.failf "implausible code growth %.2f" ratio;
  (* unknown symbol *)
  match Compile.symbol compiled "nope" with
  | exception Compile.Error _ -> ()
  | _ -> Alcotest.fail "unknown symbol accepted"

(* ---------------- compile cost ---------------- *)

(* Every compile lints after each pass and ends with the full verifier,
   forward-progress analysis included; those self-checks must stay
   linear in program size.  Home at 4-bit anytime is the suite's
   largest build (about 1.6k instructions, 17 loops): rebuilding the
   natural loops once per looping pc costs it about 43 M minor words,
   building them once per CFG about 1.7 M.  Minor words are
   deterministic for a given binary, so the gate does not depend on
   host speed. *)
let test_compile_alloc_home_4bit () =
  let w = Wn_workloads.Suite.find Wn_workloads.Workload.Small "Home" in
  let source =
    w.Wn_workloads.Workload.source
      { Wn_workloads.Workload.bits = 4; provisioned = true }
  in
  let compile () =
    ignore (Compile.compile_source ~options:Compile.anytime source)
  in
  compile ();
  let w0 = Gc.minor_words () in
  compile ();
  let w1 = Gc.minor_words () in
  let words = w1 -. w0 in
  if words > 3e6 then
    Alcotest.failf "compiling Home 4-bit anytime allocated %.2f M minor words \
                    (gate: 3 M)"
      (words /. 1e6)

let () =
  Alcotest.run "wn.compiler"
    [
      ( "layout",
        [
          Alcotest.test_case "row major" `Quick test_layout_row_major;
          Alcotest.test_case "subword major" `Quick test_layout_subword_major_structure;
          Alcotest.test_case "provisioned lanes" `Quick test_layout_provisioned_lanes;
          Alcotest.test_case "biased" `Quick test_layout_biased;
          QCheck_alcotest.to_alcotest prop_layout_roundtrip;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "arithmetic reference" `Quick test_codegen_arith;
          Alcotest.test_case "errors" `Quick test_codegen_errors;
        ] );
      ( "swp",
        [
          Alcotest.test_case "exact for all widths" `Quick test_swp_exact_for_all_widths;
          Alcotest.test_case "stages and skims" `Quick test_swp_emits_skims_and_stages;
          Alcotest.test_case "cold statements once" `Quick test_swp_cold_statement_runs_once;
        ] );
      ( "swv",
        [
          Alcotest.test_case "elementwise ops" `Quick test_swv_elementwise_ops;
          Alcotest.test_case "unprovisioned carries" `Quick
            test_swv_unprovisioned_drops_carries;
          Alcotest.test_case "banked reduction" `Quick test_swv_reduction_banked;
          Alcotest.test_case "windowed reduction" `Quick test_swv_windowed_reduction;
        ] );
      ( "anytime sqrt",
        [
          Alcotest.test_case "schema structure" `Quick test_sqrt_schema;
          Alcotest.test_case "rejects accumulation" `Quick
            test_sqrt_schema_rejects_accumulation;
        ] );
      ( "vector loads",
        [ Alcotest.test_case "equivalent and faster" `Quick
            test_vector_loads_equivalent_and_faster ] );
      ( "driver",
        [
          Alcotest.test_case "transform errors" `Quick test_transform_errors;
          Alcotest.test_case "metadata" `Quick test_compile_metadata;
        ] );
      ( "compile cost",
        [
          Alcotest.test_case "Home 4-bit allocation gate" `Quick
            test_compile_alloc_home_4bit;
        ] );
    ]
