(* Tests for wn.analysis: CFG construction, register dataflow, and the
   skim-safety / WAR checkers — including programs seeded with the
   hazards the verifier exists to catch, and a clean sweep over the
   whole benchmark suite. *)

open Wn_isa
open Wn_analysis

let r = Reg.r

(* A small diamond with a loop:

     0: mov   r0, #0
     1: cmp   r0, #10
     2: b.ge  7
     3: mov   r1, r0        ; loop body
     4: alu   r0 <- r0 + r1
     5: cmp   r0, #10
     6: b.lt  3
     7: halt                                                       *)
let diamond =
  [|
    Instr.Mov_imm (r 0, 0);
    Instr.Cmp_imm (r 0, 10);
    Instr.B (Cond.Ge, 7);
    Instr.Mov (r 1, r 0);
    Instr.Alu (Instr.Add, r 0, r 0, r 1);
    Instr.Cmp_imm (r 0, 10);
    Instr.B (Cond.Lt, 3);
    Instr.Halt;
  |]

let test_cfg_blocks () =
  let cfg = Cfg.build diamond in
  Alcotest.(check int) "block count" 3 (Array.length cfg.Cfg.blocks);
  let blk pc = cfg.Cfg.blocks.(cfg.Cfg.block_of.(pc)) in
  Alcotest.(check int) "loop body starts at 3" 3 (blk 4).Cfg.first;
  Alcotest.(check int) "loop body ends at 6" 6 (blk 4).Cfg.last;
  (* the conditional branch block falls through and jumps *)
  let b2 = cfg.Cfg.block_of.(2) in
  Alcotest.(check (list int))
    "succ of header"
    [ cfg.Cfg.block_of.(3); cfg.Cfg.block_of.(7) ]
    (List.sort compare cfg.Cfg.succ.(b2));
  (* the loop body loops back to itself and exits *)
  let b3 = cfg.Cfg.block_of.(3) in
  Alcotest.(check bool) "back edge" true (List.mem b3 cfg.Cfg.succ.(b3))

let test_cfg_dominators () =
  let cfg = Cfg.build diamond in
  Alcotest.(check bool) "entry dominates all" true (Cfg.dominates cfg 0 7);
  Alcotest.(check bool) "straight-line order" true (Cfg.dominates cfg 3 6);
  Alcotest.(check bool) "loop body does not dominate exit" false
    (Cfg.dominates cfg 3 7);
  Alcotest.(check bool) "no reverse domination" false (Cfg.dominates cfg 7 0)

let test_cfg_loops () =
  let cfg = Cfg.build diamond in
  match Cfg.loops cfg with
  | [ (header, members) ] ->
      Alcotest.(check int) "header pc" 3 header;
      Alcotest.(check (list int)) "members" [ 3; 4; 5; 6 ] members;
      Alcotest.(check bool) "in_loop inside" true (Cfg.in_loop cfg 4);
      Alcotest.(check bool) "in_loop outside" false (Cfg.in_loop cfg 0)
  | l -> Alcotest.failf "expected one loop, got %d" (List.length l)

(* The per-pc loop index against its definition, and the loops
   themselves against a from-scratch construction: one natural loop
   per back edge b -> h (h plus every block reaching b without passing
   h), bodies merged per header, listed by header pc. *)
let reference_loops (cfg : Cfg.t) =
  let nb = Array.length cfg.Cfg.blocks in
  let merged = Hashtbl.create 8 in
  for b = 0 to nb - 1 do
    List.iter
      (fun h ->
        if Cfg.IntSet.mem h cfg.Cfg.dom.(b) then begin
          let body = Hashtbl.create 8 in
          Hashtbl.replace body h ();
          let rec up x =
            if not (Hashtbl.mem body x) then begin
              Hashtbl.replace body x ();
              List.iter up cfg.Cfg.pred.(x)
            end
          in
          up b;
          Hashtbl.iter (fun x () -> Hashtbl.replace merged (h, x) ()) body
        end)
      cfg.Cfg.succ.(b)
  done;
  let headers =
    Hashtbl.fold (fun (h, _) () acc -> h :: acc) merged []
    |> List.sort_uniq Int.compare
  in
  List.map
    (fun h ->
      let pcs = ref [] in
      for bi = nb - 1 downto 0 do
        if Hashtbl.mem merged (h, bi) then
          let blk = cfg.Cfg.blocks.(bi) in
          for pc = blk.Cfg.last downto blk.Cfg.first do
            pcs := pc :: !pcs
          done
      done;
      (cfg.Cfg.blocks.(h).Cfg.first, !pcs))
    headers

let check_loop_index name program =
  let cfg = Cfg.build program in
  let loops = Cfg.loops cfg in
  if loops <> reference_loops cfg then
    Alcotest.failf "%s: loops differ from the per-back-edge construction" name;
  Array.iteri
    (fun pc _ ->
      let expected =
        List.filter_map
          (fun (h, pcs) -> if List.mem pc pcs then Some h else None)
          loops
      in
      if cfg.Cfg.loops_of.(pc) <> expected then
        Alcotest.failf "%s: loops_of.(%d) = [%s], expected [%s]" name pc
          (String.concat "; " (List.map string_of_int cfg.Cfg.loops_of.(pc)))
          (String.concat "; " (List.map string_of_int expected));
      if Cfg.in_loop cfg pc <> (expected <> []) then
        Alcotest.failf "%s: in_loop %d disagrees with loops" name pc)
    program

let test_loop_index_suite () =
  check_loop_index "diamond" diamond;
  List.iter
    (fun (w : Wn_workloads.Workload.t) ->
      List.iter
        (fun bits ->
          List.iter
            (fun (label, options) ->
              let source =
                w.Wn_workloads.Workload.source
                  { Wn_workloads.Workload.bits; provisioned = true }
              in
              let compiled =
                Wn_compiler.Compile.compile_source ~options source
              in
              check_loop_index
                (Printf.sprintf "%s %s %d-bit" w.Wn_workloads.Workload.name
                   label bits)
                compiled.Wn_compiler.Compile.program)
            [
              ("anytime", Wn_compiler.Compile.anytime);
              ("precise", Wn_compiler.Compile.precise);
            ])
        [ 4; 8 ])
    (Wn_workloads.Suite.extended Wn_workloads.Workload.Small)

let prop_loop_index_random =
  QCheck.Test.make ~count:200 ~name:"loop index matches loop membership"
    Gen_wnc.arbitrary (fun spec ->
      let compiled =
        Wn_compiler.Compile.compile ~options:Wn_compiler.Compile.precise
          spec.Gen_wnc.program
      in
      check_loop_index "random" compiled.Wn_compiler.Compile.program;
      true)

let test_liveness () =
  let cfg = Cfg.build diamond in
  let rf = Regflow.compute cfg in
  (* r0 is live throughout the loop; r1 only between its def and use *)
  Alcotest.(check bool) "r0 live into loop" true
    (List.exists (Reg.equal (r 0)) (Regflow.live_in rf 3));
  Alcotest.(check bool) "r1 dead before its def" false
    (List.exists (Reg.equal (r 1)) (Regflow.live_in rf 3));
  Alcotest.(check bool) "r1 live after its def" true
    (List.exists (Reg.equal (r 1)) (Regflow.live_in rf 4));
  (* flags are live between the cmp and the branch *)
  Alcotest.(check bool) "flags live before branch" true
    (Regflow.flags_live_in rf 2);
  Alcotest.(check bool) "flags dead at entry" false (Regflow.flags_live_in rf 0)

let rules ds = List.map (fun d -> d.Diag.rule) ds
let has_rule rule ds = List.mem rule (rules ds)

let test_uninit_and_dead () =
  (* r1 is read before any write; the first mov to r2 is dead *)
  let prog =
    [|
      Instr.Mov_imm (r 2, 1);
      Instr.Mov (r 0, r 1);
      Instr.Mov_imm (r 2, 2);
      Instr.Alu (Instr.Add, r 0, r 0, r 2);
      Instr.Str { width = Instr.Word; rs = r 0; base = r 2; off = 0 };
      Instr.Halt;
    |]
  in
  let ds = Check.program prog in
  Alcotest.(check bool) "uninit read flagged" true (has_rule "uninit-read" ds);
  Alcotest.(check bool) "dead store flagged" true (has_rule "dead-store" ds)

let test_clean_straight_line () =
  let prog =
    [|
      Instr.Mov_imm (r 0, 42);
      Instr.Mov_imm (r 1, 0x100);
      Instr.Str { width = Instr.Word; rs = r 0; base = r 1; off = 0 };
      Instr.Halt;
    |]
  in
  Alcotest.(check (list string)) "no diagnostics" [] (rules (Check.program prog))

let test_falls_off_end () =
  let prog = [| Instr.Mov_imm (r 0, 1) |] in
  Alcotest.(check bool) "falls off end" true
    (has_rule "falls-off-end" (Check.program prog))

(* ---------------- seeded skim hazards ---------------- *)

let syms =
  [ { Addr.sym_name = "x"; sym_addr = 0x100; sym_bytes = 64 } ]

let test_skim_mistargeted () =
  (* The skim target still needs r0: a skim restore scrubs volatile
     state, so latching this target loses the value. *)
  let prog =
    [|
      Instr.Mov_imm (r 0, 42);
      Instr.Mov_imm (r 1, 0x100);
      Instr.Str { width = Instr.Word; rs = r 0; base = r 1; off = 0 };
      Instr.Skm 5;
      Instr.Mov_imm (r 0, 7);
      (* target: r0 live-in here *)
      Instr.Alu (Instr.Add, r 2, r 0, r 0);
      Instr.Mov_imm (r 1, 0x104);
      Instr.Str { width = Instr.Word; rs = r 2; base = r 1; off = 0 };
      Instr.Halt;
    |]
  in
  let ds = Check.program ~symbols:syms prog in
  Alcotest.(check bool) "mis-targeted skim flagged" true
    (has_rule "skim-target-live" ds);
  Alcotest.(check bool) "it is an error" true
    (List.exists
       (fun d -> d.Diag.rule = "skim-target-live" && d.Diag.severity = Diag.Error)
       ds)

let test_skim_backward_and_uncommitted () =
  let prog =
    [|
      Instr.Mov_imm (r 0, 1);
      Instr.Skm 0;
      Instr.Halt;
    |]
  in
  let ds = Check.program prog in
  Alcotest.(check bool) "backward target flagged" true
    (has_rule "skim-backward" ds);
  (* forward skim with no store anywhere before it *)
  let prog2 = [| Instr.Mov_imm (r 0, 1); Instr.Skm 2; Instr.Halt |] in
  Alcotest.(check bool) "uncommitted skim flagged" true
    (has_rule "skim-no-commit" (Check.program prog2))

(* ---------------- seeded WAR hazard ---------------- *)

let test_war_hand_written () =
  (* load x[0]; add; store x[0] with no skim latched: the classic
     non-idempotent read-modify-write. *)
  let prog =
    [|
      Instr.Mov_imm (r 1, 0x100);
      Instr.Ldr { width = Instr.Word; signed = false; rd = r 0; base = r 1; off = 0 };
      Instr.Alu_imm (Instr.Add, r 0, r 0, 1);
      Instr.Str { width = Instr.Word; rs = r 0; base = r 1; off = 0 };
      Instr.Halt;
    |]
  in
  let ds = Check.program ~symbols:syms prog in
  Alcotest.(check bool) "war hazard flagged" true (has_rule "war-hazard" ds);
  Alcotest.(check bool) "war hazard names the symbol" true
    (List.exists (fun d -> d.Diag.symbol = Some "x") ds)

let test_war_skim_protected () =
  (* The same read-modify-write is fine once a skim is latched on every
     path to the load: an outage can no longer re-execute it. *)
  let prog =
    [|
      Instr.Mov_imm (r 1, 0x100);
      Instr.Mov_imm (r 0, 5);
      Instr.Str { width = Instr.Word; rs = r 0; base = r 1; off = 0 };
      Instr.Skm 7;
      Instr.Ldr { width = Instr.Word; signed = false; rd = r 0; base = r 1; off = 0 };
      Instr.Alu_imm (Instr.Add, r 0, r 0, 1);
      Instr.Str { width = Instr.Word; rs = r 0; base = r 1; off = 0 };
      Instr.Halt;
    |]
  in
  let ds = Check.program ~symbols:syms prog in
  Alcotest.(check bool) "no war hazard after skim" false (has_rule "war-hazard" ds)

let war_source =
  "uint32 x[16];\n\n\
   kernel bump() {\n\
  \  for (i = 0; i < 16; i += 1) {\n\
  \    x[i] = x[i] + 1;\n\
  \  }\n\
   }\n"

let test_war_compiled () =
  let compiled = Wn_compiler.Compile.compile_source war_source in
  let ds = Wn_compiler.Compile.lint compiled in
  Alcotest.(check bool) "compiled RMW flagged" true (has_rule "war-hazard" ds);
  Alcotest.(check bool) "strict compile refuses it" true
    (match Wn_compiler.Compile.compile_source ~strict:true war_source with
    | _ -> false
    | exception Wn_compiler.Compile.Error msg ->
        (* strict blames the first pass whose linted output carries the
           hazard — codegen, the pass that emits the RMW sequence *)
        let prefix = "pass codegen" in
        let n = String.length prefix in
        String.length msg >= n && String.sub msg 0 n = prefix)

(* ---------------- diagnostic ordering and dedup ---------------- *)

let test_diag_total_order () =
  let base = Diag.warning ~pc:3 ~rule:"r" "m" in
  let variants =
    [
      Diag.warning ~pc:3 ~rule:"r" "m2";
      Diag.warning ~pc:3 ~rule:"r" ~symbol:"x" "m";
      Diag.warning ~pc:3 ~rule:"r2" "m";
    ]
  in
  List.iter
    (fun d ->
      Alcotest.(check bool) "distinct diagnostics compare unequal" false
        (Diag.compare base d = 0))
    variants;
  Alcotest.(check int) "equal diagnostics compare equal" 0
    (Diag.compare base (Diag.warning ~pc:3 ~rule:"r" "m"));
  (* Sorting is deterministic whatever the input order. *)
  let l1 = List.sort Diag.compare (base :: variants) in
  let l2 = List.sort Diag.compare (List.rev (base :: variants)) in
  Alcotest.(check bool) "sort is order-independent" true (l1 = l2)

let test_diag_report_dedup () =
  let d = Diag.error ~pc:1 ~rule:"war-hazard" ~symbol:"x" "boom" in
  let other = Diag.warning ~pc:2 ~rule:"dead-store" "unused" in
  let report = Format.asprintf "%a" Diag.pp_report [ d; other; d; d ] in
  (* Three copies of [d] must render once; the summary counts the
     deduplicated list. *)
  let count_occurrences needle hay =
    let n = String.length needle in
    let rec go i acc =
      if i + n > String.length hay then acc
      else if String.sub hay i n = needle then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "duplicate printed once" 1
    (count_occurrences "boom" report);
  Alcotest.(check bool) "summary counts unique findings" true
    (count_occurrences "2 diagnostics (1 errors, 1 warnings, 0 notes)" report
    = 1)

(* ---------------- worklist solver vs the seed's round-robin ----------------

   The reverse-postorder worklist solver must compute exactly the
   fixpoint the seed's round-robin solver did, on arbitrary CFGs, for
   arbitrary monotone gen/kill specs, forward and backward. *)

let reference_solve nb spec ~edges_in ~base =
  let pre = Array.init nb (fun b -> spec.Dataflow.init b) in
  let post = Array.init nb (fun b -> spec.Dataflow.transfer b pre.(b)) in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = 0 to nb - 1 do
      let incoming =
        List.map (fun p -> post.(p)) (edges_in b)
        @ (if base b then [ spec.Dataflow.init b ] else [])
      in
      match incoming with
      | [] -> ()
      | v :: rest ->
          let joined = List.fold_left spec.Dataflow.join v rest in
          if not (spec.Dataflow.equal joined pre.(b)) then begin
            pre.(b) <- joined;
            post.(b) <- spec.Dataflow.transfer b joined;
            changed := true
          end
    done
  done;
  (pre, post)

let reference_forward (cfg : Cfg.t) spec =
  let nb = Array.length cfg.Cfg.blocks in
  let entry_blocks = List.map (fun e -> cfg.Cfg.block_of.(e)) cfg.Cfg.entries in
  let base b = cfg.Cfg.pred.(b) = [] || List.mem b entry_blocks in
  reference_solve nb spec ~edges_in:(fun b -> cfg.Cfg.pred.(b)) ~base

let reference_backward (cfg : Cfg.t) spec =
  let nb = Array.length cfg.Cfg.blocks in
  let base b = cfg.Cfg.succ.(b) = [] in
  let outs, ins =
    reference_solve nb spec ~edges_in:(fun b -> cfg.Cfg.succ.(b)) ~base
  in
  (ins, outs)

(* Random programs with real control flow: straight-line ops, forward
   and backward conditional branches (loops), calls and skims all arise;
   a Halt at the end keeps every program well-formed. *)
let arbitrary_program =
  let open QCheck.Gen in
  let instr n =
    frequency
      [
        (4, map2 (fun rd v -> Instr.Mov_imm (r rd, v)) (int_bound 3) (int_bound 100));
        (3, map (fun rd -> Instr.Alu_imm (Instr.Add, r rd, r rd, 1)) (int_bound 3));
        (2, map2 (fun rn v -> Instr.Cmp_imm (r rn, v)) (int_bound 3) (int_bound 100));
        ( 3,
          map2
            (fun c t -> Instr.B (c, t))
            (oneofl [ Cond.Eq; Cond.Ne; Cond.Lt; Cond.Ge; Cond.Al ])
            (int_bound (n - 1)) );
        (1, map (fun t -> Instr.Skm t) (int_bound (n - 1)));
        (1, return Instr.Nop);
      ]
  in
  let gen =
    int_range 4 40 >>= fun n ->
    array_size (return (n - 1)) (instr n) >>= fun body ->
    return (Array.append body [| Instr.Halt |])
  in
  QCheck.make gen

(* A deterministic pseudo-random but monotone gen/kill spec over int
   masks (join = lor), distinct per block.  Boundary values are nonzero
   only on [base] blocks: chaotic iteration is order-independent only
   when the starting assignment is below the equations' image, so
   non-base blocks must start at bottom (0 for lor) — otherwise the two
   solvers can legitimately settle on different solutions around cycles
   seeded with arbitrary junk. *)
let mask_spec ~base () =
  let h b k = (b * 2654435761 + k * 40503) land 0xFFFF in
  {
    Dataflow.init = (fun b -> if base b then h b 7 land 0xFF else 0);
    transfer = (fun b v -> v land lnot (h b 1) lor h b 2);
    join = ( lor );
    equal = Int.equal;
  }

let forward_base (cfg : Cfg.t) =
  let entry_blocks = List.map (fun e -> cfg.Cfg.block_of.(e)) cfg.Cfg.entries in
  fun b -> cfg.Cfg.pred.(b) = [] || List.mem b entry_blocks

let backward_base (cfg : Cfg.t) b = cfg.Cfg.succ.(b) = []

let eq_solutions (a_in, a_out) (b_in, b_out) = a_in = b_in && a_out = b_out

let prop_worklist_matches_reference =
  QCheck.Test.make ~count:500 ~name:"worklist solver == seed round-robin"
    arbitrary_program (fun prog ->
      let cfg = Cfg.build prog in
      let fwd = mask_spec ~base:(forward_base cfg) () in
      let bwd = mask_spec ~base:(backward_base cfg) () in
      eq_solutions (Dataflow.forward cfg fwd) (reference_forward cfg fwd)
      && eq_solutions (Dataflow.backward cfg bwd) (reference_backward cfg bwd))

let prop_solution_is_fixpoint =
  QCheck.Test.make ~count:500 ~name:"solution satisfies the dataflow equations"
    arbitrary_program (fun prog ->
      let cfg = Cfg.build prog in
      let spec = mask_spec ~base:(forward_base cfg) () in
      let ins, outs = Dataflow.forward cfg spec in
      let nb = Array.length cfg.Cfg.blocks in
      let entry_blocks =
        List.map (fun e -> cfg.Cfg.block_of.(e)) cfg.Cfg.entries
      in
      let ok = ref true in
      for b = 0 to nb - 1 do
        (* out is always transfer of in *)
        if outs.(b) <> spec.Dataflow.transfer b ins.(b) then ok := false;
        (* in is the join of incoming outs (plus the boundary value) *)
        let base = cfg.Cfg.pred.(b) = [] || List.mem b entry_blocks in
        let incoming =
          List.map (fun p -> outs.(p)) cfg.Cfg.pred.(b)
          @ (if base then [ spec.Dataflow.init b ] else [])
        in
        (match incoming with
        | [] -> ()
        | v :: rest ->
            if List.fold_left spec.Dataflow.join v rest <> ins.(b) then
              ok := false)
      done;
      !ok)

(* Widening delay counts genuine re-visits only — the initial seeding
   pass over every block must not eat into it (regression: it did, so a
   chain stabilising within the documented delay still got widened). *)
let test_widen_delay_counts_revisits () =
  (* block structure: [0] -> [1;2] (self-loop via b.lt) -> [3] *)
  let prog =
    [| Instr.Nop; Instr.Nop; Instr.B (Cond.Lt, 1); Instr.Halt |]
  in
  let cfg = Cfg.build prog in
  let loop_blk = cfg.Cfg.block_of.(1) in
  (* int-option chain domain: the loop's value climbs by 1 per revisit
     and saturates at 2, i.e. it stabilises on exactly the second
     genuine revisit — inside a widen_delay of 2, so classic widening
     (old on no-growth, sentinel on growth) must never fire. *)
  let spec =
    {
      Dataflow.init = (fun b -> if b = cfg.Cfg.block_of.(0) then Some 0 else None);
      transfer =
        (fun b v ->
          match v with
          | Some x when b = loop_blk -> Some (min (x + 1) 2)
          | _ -> v);
      join =
        (fun a b ->
          match (a, b) with
          | None, x | x, None -> x
          | Some a, Some b -> Some (max a b));
      equal = ( = );
    }
  in
  let widen old next =
    match (old, next) with
    | Some o, Some n when n > o -> Some 999
    | _ -> old
  in
  let ins, _ = Dataflow.forward ~widen ~widen_delay:2 cfg spec in
  Alcotest.(check (option int))
    "value stabilising within the delay is not widened" (Some 2)
    ins.(loop_blk)

(* ---------------- interval domain ---------------- *)

(* 0: mov r0, #0        a counted loop with an invariant register and
   1: mov r1, #5        a data register the analysis can track:
   2: cmp r0, #10       header/check block
   3: b.ge 7
   4: alu r2 <- r0 + r1 loop body
   5: alu r0 <- r0 + 1
   6: b 2
   7: halt *)
let counted_loop =
  [|
    Instr.Mov_imm (r 0, 0);
    Instr.Mov_imm (r 1, 5);
    Instr.Cmp_imm (r 0, 10);
    Instr.B (Cond.Ge, 7);
    Instr.Alu (Instr.Add, r 2, r 0, r 1);
    Instr.Alu_imm (Instr.Add, r 0, r 0, 1);
    Instr.B (Cond.Al, 2);
    Instr.Halt;
  |]

let test_interval_basics () =
  Alcotest.(check bool) "const is itself" true
    (Interval.itv_equal (Interval.const 7) { Interval.lo = 7; hi = 7 });
  Alcotest.(check bool) "join spans" true
    (Interval.itv_equal
       (Interval.join_itv (Interval.const 2) (Interval.const 9))
       { Interval.lo = 2; hi = 9 });
  (* widening jumps a moving bound to the domain edge and is stable on
     a settled one *)
  let w =
    Interval.widen_itv { Interval.lo = 0; hi = 10 } { Interval.lo = 0; hi = 11 }
  in
  Alcotest.(check bool) "widen blows the moving hi" true
    (w.Interval.hi = 0xFFFF_FFFF && w.Interval.lo = 0);
  Alcotest.(check bool) "widen keeps the stable bound" true
    (Interval.itv_equal
       (Interval.widen_itv { Interval.lo = 3; hi = 9 } { Interval.lo = 3; hi = 9 })
       { Interval.lo = 3; hi = 9 })

let test_interval_analysis () =
  let cfg = Cfg.build counted_loop in
  let t = Interval.analyze cfg in
  (* the loop-invariant register stays a constant through the loop *)
  Alcotest.(check (option int)) "r1 constant in body" (Some 5)
    (Interval.is_const (Interval.reg_at t 4 (r 1)));
  (* the counter keeps its zero lower bound (restores re-enter at 0) *)
  Alcotest.(check int) "counter lower bound" 0
    (Interval.reg_at t 4 (r 0)).Interval.lo;
  (* out-state of the entry block feeds the loop header the exact init *)
  Alcotest.(check (option int)) "preheader out-state"
    (Some 0)
    (Interval.is_const
       (Interval.reg_out_of_block t cfg.Cfg.block_of.(0) (r 0)))

let test_interval_overflow_to_top () =
  (* Products and shifts whose native-int result exceeds 2^62 must go
     to top, not wrap negative past the range check (regression: the
     broken intervals then passed trip-bound guards and produced
     unsound WCEC bounds). *)
  let ldr rd =
    Instr.Ldr { width = Instr.Word; signed = false; rd; base = r 12; off = 0 }
  in
  let prog =
    [|
      ldr (r 0);
      ldr (r 1);
      Instr.Mul (r 2, r 0, r 1);
      Instr.Shift (Instr.Lsl, r 3, r 0, 31);
      Instr.Mov_imm (r 4, 3);
      Instr.Shift (Instr.Lsl, r 5, r 4, 4);
      Instr.Halt;
    |]
  in
  let t = Interval.analyze (Cfg.build prog) in
  let check_valid name v =
    Alcotest.(check bool) (name ^ ": 0 <= lo <= hi <= u32_max") true
      (0 <= v.Interval.lo && v.Interval.lo <= v.Interval.hi
     && v.Interval.hi <= Interval.u32_max)
  in
  let at pc reg = Interval.reg_at t pc reg in
  Alcotest.(check bool) "top * top = top" true (Interval.is_top (at 3 (r 2)));
  check_valid "top * top" (at 3 (r 2));
  Alcotest.(check bool) "top lsl 31 = top" true (Interval.is_top (at 4 (r 3)));
  check_valid "top lsl 31" (at 4 (r 3));
  (* small shifts stay exact — the overflow guard must not over-approximate *)
  Alcotest.(check (option int)) "3 lsl 4 stays const" (Some 48)
    (Interval.is_const (at 6 (r 5)))

(* ---------------- trip counts and WCEC ---------------- *)

let trips_of prog =
  let report = Progress.analyze ~runtime:(Progress.skim_only ()) (Cfg.build prog) in
  List.map (fun (_, t) -> t) report.Progress.rp_trip_bounds

let test_trip_up_counting () =
  Alcotest.(check (list (option int))) "i = 0; i < 10; i += 1" [ Some 10 ]
    (trips_of counted_loop)

let test_trip_down_counting () =
  let prog =
    [|
      Instr.Mov_imm (r 0, 8);
      Instr.Cmp_imm (r 0, 0);
      Instr.B (Cond.Le, 6);
      Instr.Nop;
      Instr.Alu_imm (Instr.Sub, r 0, r 0, 2);
      Instr.B (Cond.Al, 1);
      Instr.Halt;
    |]
  in
  Alcotest.(check (list (option int))) "i = 8; i > 0; i -= 2" [ Some 4 ]
    (trips_of prog)

let test_trip_ne_loop () =
  let prog =
    [|
      Instr.Mov_imm (r 0, 0);
      Instr.Cmp_imm (r 0, 6);
      Instr.B (Cond.Eq, 5);
      Instr.Alu_imm (Instr.Add, r 0, r 0, 2);
      Instr.B (Cond.Al, 1);
      Instr.Halt;
    |]
  in
  Alcotest.(check (list (option int))) "i = 0; i != 6; i += 2" [ Some 3 ]
    (trips_of prog)

let lo_loop ~limit ~step =
  [|
    Instr.Mov_imm (r 0, 0);
    Instr.Cmp_imm (r 0, limit);
    Instr.B (Cond.Hs, 5);
    Instr.Alu_imm (Instr.Add, r 0, r 0, step);
    Instr.B (Cond.Al, 1);
    Instr.Halt;
  |]

let test_trip_lo_wraparound () =
  (* with step 3 and limit u32_max the counter can jump from
     0xFFFF_FFFE past the limit, wrap, and never satisfy the unsigned
     exit — no finite bound exists (regression: the Lo case returned
     one anyway) *)
  Alcotest.(check (list (option int)))
    "i = 0; i <u 0xFFFF_FFFF; i += 3 may never exit" [ None ]
    (trips_of (lo_loop ~limit:0xFFFF_FFFF ~step:3));
  (* step 1 cannot skip the limit, so the guard must still admit it *)
  Alcotest.(check (list (option int)))
    "i = 0; i <u 0xFFFF_FFFF; i += 1 is bounded" [ Some 0xFFFF_FFFF ]
    (trips_of (lo_loop ~limit:0xFFFF_FFFF ~step:1));
  (* and small limits keep their exact bound whatever the step *)
  Alcotest.(check (list (option int)))
    "i = 0; i <u 10; i += 3" [ Some 4 ]
    (trips_of (lo_loop ~limit:10 ~step:3))

let test_trip_register_step_unbounded () =
  (* the diamond's counter advances by a register amount: no bound *)
  Alcotest.(check (list (option int))) "register-step loop" [ None ]
    (trips_of diamond)

let test_wcec_exact () =
  (* counted_loop by hand: non-loop pcs 0,1 cost 2 and pc 7 costs 1;
     loop pcs {2..6} cost 3 (cmp+b.ge) + 4 (alu+alu+b) per iteration,
     ×11 (10 trips + the final check) = 77; total 80. *)
  let report =
    Progress.analyze ~runtime:(Progress.skim_only ()) (Cfg.build counted_loop)
  in
  (match report.Progress.rp_total with
  | Progress.Finite c -> Alcotest.(check int) "whole-program WCEC" 80 c
  | Progress.Unbounded _ -> Alcotest.fail "expected a finite bound");
  match report.Progress.rp_regions with
  | [ rg ] -> (
      Alcotest.(check int) "one region spans the program" 8 rg.Progress.rg_size;
      match rg.Progress.rg_capped with
      | Progress.Finite c ->
          (* skim-only per-charge bound = restore (40) + raw *)
          Alcotest.(check int) "per-charge adds the restore" 120 c
      | Progress.Unbounded _ -> Alcotest.fail "expected a finite region")
  | l -> Alcotest.failf "expected one region, got %d" (List.length l)

let test_region_partitioning () =
  (* a skim target splits the program into two regions *)
  let prog =
    [|
      Instr.Mov_imm (r 1, 0x100);
      Instr.Mov_imm (r 0, 5);
      Instr.Str { width = Instr.Word; rs = r 0; base = r 1; off = 0 };
      Instr.Skm 6;
      Instr.Nop;
      Instr.Nop;
      Instr.Halt;
    |]
  in
  let report =
    Progress.analyze ~runtime:(Progress.skim_only ()) (Cfg.build prog)
  in
  match report.Progress.rp_regions with
  | [ a; b ] ->
      Alcotest.(check int) "task entry" 0 a.Progress.rg_entry;
      Alcotest.(check int) "entry region stops at the target" 5
        a.Progress.rg_last;
      Alcotest.(check int) "skim region starts at the target" 6
        b.Progress.rg_entry;
      Alcotest.(check bool) "kinds" true
        (a.Progress.rg_kind = Progress.Task_entry
        && b.Progress.rg_kind = Progress.Skim_target)
  | l -> Alcotest.failf "expected two regions, got %d" (List.length l)

let test_progress_diagnostics () =
  (* unbounded loop: a warning naming the binding loop *)
  let ds = Progress.check ~runtime:(Progress.skim_only ()) (Cfg.build diamond) in
  Alcotest.(check bool) "unbounded warned" true
    (List.exists
       (fun d ->
         d.Diag.rule = "progress-unbounded" && d.Diag.severity = Diag.Warning)
       ds);
  (* bounded loop but starved budget: an error *)
  let ds =
    Progress.check ~runtime:(Progress.skim_only ()) ~budget:100e-9
      (Cfg.build counted_loop)
  in
  Alcotest.(check bool) "over budget errored" true
    (List.exists
       (fun d ->
         d.Diag.rule = "progress-budget" && d.Diag.severity = Diag.Error)
       ds);
  (* the same program fits the default capacitor: clean *)
  Alcotest.(check (list string)) "default budget clean" []
    (rules (Progress.check ~runtime:(Progress.skim_only ()) (Cfg.build counted_loop)))

(* ---------------- the suite itself must verify clean ---------------- *)

let test_suite_clean () =
  List.iter
    (fun (w : Wn_workloads.Workload.t) ->
      List.iter
        (fun bits ->
          List.iter
            (fun (label, options) ->
              let source =
                w.Wn_workloads.Workload.source
                  { Wn_workloads.Workload.bits; provisioned = true }
              in
              match
                Wn_compiler.Compile.compile_source ~options ~strict:true source
              with
              | compiled ->
                  let ds = Wn_compiler.Compile.lint compiled in
                  Alcotest.(check (list string))
                    (Printf.sprintf "%s %s %d-bit"
                       w.Wn_workloads.Workload.name label bits)
                    [] (rules ds)
              | exception Wn_compiler.Compile.Error msg
                when label = "anytime+vl"
                     && String.length msg >= 19
                     && String.sub msg 0 19 = "pass lower-anytime:" ->
                  (* vector_loads only applies when the asp arrays also
                     carry asv pragmas; skip benchmarks without them *)
                  ())
            [
              ("precise", Wn_compiler.Compile.precise);
              ("anytime", Wn_compiler.Compile.anytime);
              ("anytime+vl", Wn_compiler.Compile.anytime_vector_loads);
            ])
        [ 4; 8; 16 ])
    (Wn_workloads.Suite.extended Wn_workloads.Workload.Small)

(* ---------------- block fusion vs the WCEC model ----------------

   The block engine's entry guard charges a fused run its precomputed
   worst-case cycle total; forward-progress soundness rests on that
   total being exactly the WCEC model's price for the same pc range.
   Fusible instructions all have statically fixed latency (a multiply
   is only fusible when it cannot be memoized or zero-skipped), and a
   run's terminating branch is priced taken — its worst case — by both,
   so this is an equality, not a bound.  Every interior instruction is
   fusible; a [B] may only be a run's last instruction, and only where
   it ends its CFG block. *)

let check_fusion_against_wcec name program =
  let cfg = Cfg.build program in
  if Cfg.partition program <> cfg.Cfg.blocks then
    Alcotest.failf "%s: Cfg.partition disagrees with Cfg.build's blocks" name;
  List.iter
    (fun memoizable ->
      let plan = Fuse.plan ~memoizable program in
      List.iter
        (fun (r : Fuse.run) ->
          let first = r.Fuse.r_first in
          let last = first + r.Fuse.r_len - 1 in
          if r.Fuse.r_len < Fuse.min_run_len then
            Alcotest.failf "%s: run at %d shorter than min_run_len" name first;
          let wcec = ref 0 in
          for pc = first to last do
            (match program.(pc) with
            | Instr.B _ ->
                (* A branch may only end a run, and only as its CFG
                   block's terminator. *)
                if pc <> last then
                  Alcotest.failf "%s: branch at %d inside run at %d" name pc
                    first;
                if (cfg.Cfg.blocks.(cfg.Cfg.block_of.(pc))).Cfg.last <> pc then
                  Alcotest.failf "%s: run at %d ends in a branch at %d that \
                                  does not end its block" name first pc
            | i ->
                if not (Fuse.fusible ~memoizable i) then
                  Alcotest.failf "%s: non-fusible instruction inside run at %d"
                    name pc);
            wcec := !wcec + Energy.worst_cycles program.(pc)
          done;
          if !wcec <> r.Fuse.r_cycles then
            Alcotest.failf "%s: run at %d prices %d cycles, WCEC model says %d"
              name first r.Fuse.r_cycles !wcec;
          (* A run never crosses a basic-block boundary: same CFG block
             throughout, and no jump target strictly inside it. *)
          let blk = cfg.Cfg.block_of.(first) in
          for pc = first + 1 to last do
            if cfg.Cfg.block_of.(pc) <> blk then
              Alcotest.failf "%s: run at %d spans CFG blocks" name first;
            if (cfg.Cfg.blocks.(cfg.Cfg.block_of.(pc))).Cfg.first = pc then
              Alcotest.failf "%s: jump target inside run at %d" name first
          done)
        plan)
    [ false; true ]

let test_fuse_wcec_suite () =
  List.iter
    (fun (w : Wn_workloads.Workload.t) ->
      List.iter
        (fun (label, options) ->
          let source =
            w.Wn_workloads.Workload.source
              { Wn_workloads.Workload.bits = 8; provisioned = true }
          in
          let compiled = Wn_compiler.Compile.compile_source ~options source in
          check_fusion_against_wcec
            (Printf.sprintf "%s %s" w.Wn_workloads.Workload.name label)
            compiled.Wn_compiler.Compile.program)
        [
          ("anytime", Wn_compiler.Compile.anytime);
          ("precise", Wn_compiler.Compile.precise);
        ])
    (Wn_workloads.Suite.all Wn_workloads.Workload.Small)

let prop_fuse_wcec_random =
  QCheck.Test.make ~count:200 ~name:"fused runs price exactly their WCEC"
    Gen_wnc.arbitrary (fun spec ->
      let compiled =
        Wn_compiler.Compile.compile ~options:Wn_compiler.Compile.precise
          spec.Gen_wnc.program
      in
      check_fusion_against_wcec "random" compiled.Wn_compiler.Compile.program;
      true)

let () =
  Alcotest.run "wn.analysis"
    [
      ( "cfg",
        [
          Alcotest.test_case "blocks" `Quick test_cfg_blocks;
          Alcotest.test_case "dominators" `Quick test_cfg_dominators;
          Alcotest.test_case "loops" `Quick test_cfg_loops;
          Alcotest.test_case "loop index over the suite" `Quick
            test_loop_index_suite;
          QCheck_alcotest.to_alcotest prop_loop_index_random;
        ] );
      ( "regflow",
        [
          Alcotest.test_case "liveness" `Quick test_liveness;
          Alcotest.test_case "uninit and dead" `Quick test_uninit_and_dead;
          Alcotest.test_case "clean program" `Quick test_clean_straight_line;
          Alcotest.test_case "falls off end" `Quick test_falls_off_end;
        ] );
      ( "skim",
        [
          Alcotest.test_case "mis-targeted" `Quick test_skim_mistargeted;
          Alcotest.test_case "backward and uncommitted" `Quick
            test_skim_backward_and_uncommitted;
        ] );
      ( "war",
        [
          Alcotest.test_case "hand-written" `Quick test_war_hand_written;
          Alcotest.test_case "skim-protected" `Quick test_war_skim_protected;
          Alcotest.test_case "compiled strict" `Quick test_war_compiled;
        ] );
      ( "diag",
        [
          Alcotest.test_case "total order" `Quick test_diag_total_order;
          Alcotest.test_case "report dedup" `Quick test_diag_report_dedup;
        ] );
      ( "dataflow",
        Alcotest.test_case "widen delay counts revisits" `Quick
          test_widen_delay_counts_revisits
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_worklist_matches_reference; prop_solution_is_fixpoint ] );
      ( "interval",
        [
          Alcotest.test_case "domain ops" `Quick test_interval_basics;
          Alcotest.test_case "loop analysis" `Quick test_interval_analysis;
          Alcotest.test_case "overflow goes to top" `Quick
            test_interval_overflow_to_top;
        ] );
      ( "progress",
        [
          Alcotest.test_case "up-counting trips" `Quick test_trip_up_counting;
          Alcotest.test_case "down-counting trips" `Quick
            test_trip_down_counting;
          Alcotest.test_case "ne-loop trips" `Quick test_trip_ne_loop;
          Alcotest.test_case "lo wraparound guard" `Quick
            test_trip_lo_wraparound;
          Alcotest.test_case "register step unbounded" `Quick
            test_trip_register_step_unbounded;
          Alcotest.test_case "exact WCEC" `Quick test_wcec_exact;
          Alcotest.test_case "region partitioning" `Quick
            test_region_partitioning;
          Alcotest.test_case "diagnostics" `Quick test_progress_diagnostics;
        ] );
      ("suite", [ Alcotest.test_case "lints clean" `Quick test_suite_clean ]);
      ( "fuse",
        Alcotest.test_case "suite WCEC equality" `Quick test_fuse_wcec_suite
        :: List.map QCheck_alcotest.to_alcotest [ prop_fuse_wcec_random ] );
    ]
