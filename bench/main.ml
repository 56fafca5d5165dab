(* The reproduction harness: regenerates every table and figure of the
   paper's evaluation section, then runs a Bechamel microbenchmark suite
   over the simulation kernels behind each of them.

   Usage:
     dune exec bench/main.exe                    # everything, CI-sized
     dune exec bench/main.exe -- fig9 fig10      # selected experiments
     dune exec bench/main.exe -- --paper-setup   # 9 traces x 3 invocations
     dune exec bench/main.exe -- --paper-scale   # 128x128 conv, 64x64 matmul
     dune exec bench/main.exe -- --jobs 8        # domain-pool width (default: cores, capped)
     dune exec bench/main.exe -- --out figures   # also write PGM images
     dune exec bench/main.exe -- --no-micro      # skip the Bechamel pass
     dune exec bench/main.exe -- --micro-only    # only the Bechamel pass
     dune exec bench/main.exe -- --bench-json F  # where to persist estimates

   Figures go to stdout; per-experiment wall-time lines of the form
   [fig10: 12.34s wall, 8 jobs] go to stderr, so stdout is bit-identical
   across --jobs values and the timings stay measurable.  The Bechamel
   estimates are additionally serialized to BENCH_machine.json (or
   --bench-json PATH) so successive commits leave a comparable
   performance trajectory. *)

open Wn_workloads

let usage () =
  prerr_endline
    "usage: main.exe [--paper-scale] [--paper-setup] [--jobs N] [--out DIR] \
     [--no-micro] [--micro-only] [--bench-json PATH] [experiment ...]";
  prerr_endline
    ("experiments: " ^ String.concat " " (List.map fst Wn_core.Figures.all));
  exit 2

type args = {
  opts : Wn_core.Figures.options;
  chosen : string list;
  micro : bool;
  micro_only : bool;
  bench_json : string;
}

let parse_args () =
  let opts =
    ref
      {
        Wn_core.Figures.default_options with
        Wn_core.Figures.jobs = Wn_exec.Pool.default_jobs ();
      }
  in
  let chosen = ref [] in
  let micro = ref true in
  let micro_only = ref false in
  let bench_json = ref "BENCH_machine.json" in
  let rec go = function
    | [] -> ()
    | "--paper-scale" :: rest ->
        opts := { !opts with Wn_core.Figures.scale = Workload.Paper };
        go rest
    | "--paper-setup" :: rest ->
        opts :=
          { !opts with Wn_core.Figures.setup = Wn_core.Intermittent.paper_setup };
        go rest
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n >= 1 -> opts := { !opts with Wn_core.Figures.jobs = n }
        | _ ->
            Printf.eprintf "--jobs needs a positive integer, got %S\n" n;
            usage ());
        go rest
    | "--out" :: dir :: rest ->
        opts := { !opts with Wn_core.Figures.out_dir = Some dir };
        go rest
    | "--no-micro" :: rest ->
        micro := false;
        go rest
    | "--micro-only" :: rest ->
        micro_only := true;
        go rest
    | "--bench-json" :: path :: rest ->
        bench_json := path;
        go rest
    | ("--help" | "-h") :: _ -> usage ()
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
        Printf.eprintf "unknown flag %s\n" arg;
        usage ()
    | arg :: rest ->
        chosen := arg :: !chosen;
        go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  {
    opts = !opts;
    chosen = List.rev !chosen;
    micro = !micro;
    micro_only = !micro_only;
    bench_json = !bench_json;
  }

(* ---------------- Bechamel microbenchmarks ---------------- *)

(* One Test.make per table/figure: the simulation kernel that dominates
   that experiment's cost, so regressions in the substrate show up next
   to the experiment they would slow down. *)
let micro_tests scale =
  let open Bechamel in
  (* table1 / fig9: raw simulator stepping on the Var kernel. *)
  let var = Suite.find scale "Var" in
  let cfg8 = { Workload.bits = 8; provisioned = true } in
  let build = Wn_core.Runner.build var cfg8 in
  let rng = Wn_util.Rng.create 1 in
  let inputs = var.Workload.fresh_inputs rng in
  let machine = Wn_core.Runner.machine build in
  let step_machine () =
    Wn_core.Runner.load_sample build machine inputs;
    for _ = 1 to 1000 do
      Wn_machine.Machine.step_fast machine
    done
  in
  (* Same workload through the block engine: fused runs retire several
     instructions per dispatch, so the loop counts retirement instead of
     dispatches (it may overshoot by at most one block's tail). *)
  let step_machine_block () =
    Wn_core.Runner.load_sample build machine inputs;
    let stop = Wn_machine.Machine.instructions_retired machine + 1000 in
    while Wn_machine.Machine.instructions_retired machine < stop do
      Wn_machine.Machine.step_block machine
    done
  in
  (* fig10/fig11: a full intermittent task on a bursty supply. *)
  let trace =
    Wn_power.Trace.square ~on_ms:3 ~off_ms:30 ~power:2e-3 ~duration_s:4.0
  in
  let intermittent_task engine () =
    let supply =
      Wn_power.Supply.create ~trace ~capacitor:(Wn_power.Capacitor.create ()) ()
    in
    Wn_core.Runner.load_sample build machine inputs;
    ignore
      (Wn_runtime.Executor.run
         ~policy:(Wn_runtime.Executor.Clank Wn_runtime.Executor.default_clank)
         ~engine ~machine ~supply ())
  in
  (* fig10: the Clank runtime with its shadow-map read/write tracking,
     isolated from outage physics by an always-on supply — measures the
     per-instruction tracking overhead alone. *)
  let clank_shadowmap engine () =
    Wn_core.Runner.load_sample build machine inputs;
    ignore
      (Wn_runtime.Executor.run
         ~policy:(Wn_runtime.Executor.Clank Wn_runtime.Executor.default_clank)
         ~engine ~machine
         ~supply:(Wn_power.Supply.always_on ())
         ())
  in
  (* fig13: the multiply front end with and without memoization. *)
  let memo = Wn_machine.Memo.create ~entries:16 () in
  let memo_lookup () =
    for a = 0 to 99 do
      match Wn_machine.Memo.lookup memo ~a ~b:17 with
      | Some _ -> ()
      | None -> Wn_machine.Memo.insert memo ~a ~b:17 ~result:(a * 17)
    done
  in
  (* table1 (code size): compile the Var kernel end to end. *)
  let compile_kernel () =
    ignore
      (Wn_compiler.Compile.compile_source ~options:Wn_compiler.Compile.anytime
         (var.Workload.source cfg8))
  in
  (* table1, largest build: Home at 4-bit anytime (about 1.6k
     instructions, 17 loops), where the compile's per-pass lints and
     forward-progress self-check cost the most. *)
  let home = Suite.find scale "Home" in
  let compile_home_4bit () =
    ignore
      (Wn_compiler.Compile.compile_source ~options:Wn_compiler.Compile.anytime
         (home.Workload.source { Workload.bits = 4; provisioned = true }))
  in
  (* fig14: subword-major encode of a MatAdd-sized input. *)
  let layout =
    Wn_compiler.Layout.subword_major ~elem_bits:32 ~signed:false ~bits:8
      ~lane_bits:16 ~count:1024 ()
  in
  let data = Array.init 1024 (fun i -> i * 1_048_573) in
  let layout_encode () = ignore (Wn_compiler.Layout.encode layout data) in
  (* isa codec behind every build. *)
  let program = build.Wn_core.Runner.compiled.Wn_compiler.Compile.program in
  let codec () =
    match
      Wn_isa.Encoding.decode_program (Wn_isa.Encoding.encode_program program)
    with
    | Ok _ -> ()
    | Error e -> failwith e
  in
  let fast = Wn_runtime.Executor.Fast in
  let block = Wn_runtime.Executor.Block in
  [
    Test.make ~name:"table1:compile_var_kernel" (Staged.stage compile_kernel);
    Test.make ~name:"table1:compile_home_4bit" (Staged.stage compile_home_4bit);
    Test.make ~name:"fig9:simulate_1k_instructions[engine=fast]"
      (Staged.stage step_machine);
    Test.make ~name:"fig9:simulate_1k_instructions[engine=block]"
      (Staged.stage step_machine_block);
    Test.make ~name:"fig10:intermittent_clank_task[engine=fast]"
      (Staged.stage (intermittent_task fast));
    Test.make ~name:"fig10:intermittent_clank_task[engine=block]"
      (Staged.stage (intermittent_task block));
    Test.make ~name:"fig10:executor_clank_shadowmap[engine=fast]"
      (Staged.stage (clank_shadowmap fast));
    Test.make ~name:"fig10:executor_clank_shadowmap[engine=block]"
      (Staged.stage (clank_shadowmap block));
    Test.make ~name:"fig13:memo_front_end" (Staged.stage memo_lookup);
    Test.make ~name:"fig14:subword_major_encode" (Staged.stage layout_encode);
    Test.make ~name:"isa:codec_roundtrip" (Staged.stage codec);
  ]

(* Persist estimates as name -> ns/run, so each commit leaves a
   machine-readable point on the repo's performance trajectory (see
   EXPERIMENTS.md).  Hand-rolled JSON: names contain no characters
   needing escapes beyond what %S provides. *)
let write_bench_json path rows =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"schema\": \"wn-bench/1\",\n";
  Printf.fprintf oc "  \"unit\": \"ns/run\",\n";
  Printf.fprintf oc "  \"results\": {";
  List.iteri
    (fun i (name, ns) ->
      Printf.fprintf oc "%s\n    %S: %.1f" (if i = 0 then "" else ",") name ns)
    rows;
  Printf.fprintf oc "\n  }\n}\n";
  close_out oc

let run_micro scale ~json_path =
  let open Bechamel in
  let open Toolkit in
  print_newline ();
  print_endline "=== Bechamel microbenchmarks (ns per run) ===";
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let tests = Test.make_grouped ~name:"wn" (micro_tests scale) in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  let estimates =
    List.filter_map
      (fun (name, ols) ->
        match Analyze.OLS.estimates ols with
        | Some (t :: _) -> Some (name, t)
        | _ -> None)
      rows
    |> List.sort compare
  in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some (t :: _) -> Printf.printf "%-40s %12.0f ns/run\n" name t
      | _ -> Printf.printf "%-40s (no estimate)\n" name)
    (List.sort compare rows);
  write_bench_json json_path estimates;
  Printf.eprintf "[bechamel estimates written to %s]\n%!" json_path

let () =
  let { opts; chosen; micro; micro_only; bench_json } = parse_args () in
  let ppf = Format.std_formatter in
  let ids = if chosen = [] then List.map fst Wn_core.Figures.all else chosen in
  if not micro_only then begin
    let wall0 = Unix.gettimeofday () in
    let cpu0 = Sys.time () in
    List.iter
      (fun id ->
        let t0 = Unix.gettimeofday () in
        match Wn_core.Figures.run ppf opts id with
        | Ok () ->
            Format.pp_print_flush ppf ();
            (* Timing goes to stderr: stdout stays bit-identical across
               --jobs values, which is what the determinism check diffs. *)
            Printf.eprintf "[%s: %.2fs wall, %d jobs]\n%!" id
              (Unix.gettimeofday () -. t0)
              opts.Wn_core.Figures.jobs
        | Error e ->
            prerr_endline e;
            exit 2)
      ids;
    Printf.eprintf "\n[experiments done in %.1fs wall / %.1fs cpu, %d jobs]\n%!"
      (Unix.gettimeofday () -. wall0)
      (Sys.time () -. cpu0)
      opts.Wn_core.Figures.jobs
  end;
  if micro && (micro_only || chosen = []) then
    run_micro opts.Wn_core.Figures.scale ~json_path:bench_json
