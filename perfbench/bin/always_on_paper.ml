(* always-on-paper: every Table I kernel at the paper's dimensions,
   anytime and precise builds, on continuous power.  No supply cost, no
   Clank tracking and long fusible runs: pure machine stepping.  Every
   output must equal the golden model bit for bit. *)

open Harness
module Workload = Wn_workloads.Workload
module Suite = Wn_workloads.Suite

let samples = 2
let cfg = { Workload.bits = 8; provisioned = true }

type job = { id : int; w : Workload.t; build : Runner.build; inputs : (string * int array) list }

let builds tr =
  List.map
    (fun (w : Workload.t) ->
      let build precise =
        Span.span tr ~layer:"compiler" ~name:"Runner.build" (fun () ->
            Runner.build ~precise w cfg)
      in
      (w, build false, build true))
    (Suite.all Workload.Paper)

(* Per kernel, [samples] input samples drawn from one generator seeded
   by the benchmark seed; each sample runs on both builds. *)
let jobs_of tr ~seed builds =
  let rng = Wn_util.Rng.create seed in
  let jobs =
    List.concat_map
      (fun ((w : Workload.t), anytime, precise) ->
        List.concat_map
          (fun _ ->
            let inputs =
              Span.span tr ~layer:"workloads" ~name:"fresh_inputs" (fun () ->
                  w.Workload.fresh_inputs rng)
            in
            [ (w, anytime, inputs); (w, precise, inputs) ])
          (List.init samples Fun.id))
      builds
  in
  List.mapi (fun id (w, build, inputs) -> { id; w; build; inputs }) jobs

type verdict = { v_outcome : Executor.outcome; v_energy_j : float; v_ok : bool }

let run_job tr j =
  let t =
    List.hd
      (run_stream tr ~policy:Executor.Always_on
         ~supply:(fun () -> Supply.always_on ())
         j.build [ j.inputs ])
  in
  let golden =
    Span.span tr ~layer:"workloads" ~name:"golden" (fun () -> j.w.Workload.golden j.inputs)
  in
  {
    v_outcome = t.outcome;
    v_energy_j = t.energy_j;
    v_ok = t.outcome.Executor.completed && t.out = golden;
  }

let key verdicts =
  String.concat " "
    (List.map
       (fun v ->
         Printf.sprintf "%d/%d/%b" v.v_outcome.Executor.retired
           v.v_outcome.Executor.wall_cycles v.v_ok)
       verdicts)

let failures verdicts = List.length (List.filter (fun v -> not v.v_ok) verdicts)

let setup ~seed =
  let quiet = Span.create ~enabled:false in
  let jobs = jobs_of quiet ~seed (builds quiet) in
  (* The whole task list at once on the pool, each task on a fresh
     machine and always-on supply. *)
  let round () =
    let verdicts = Wn_exec.Pool.map ~jobs:Harness.jobs (run_job quiet) jobs in
    let k = key verdicts in
    { rd_units = List.length verdicts; rd_failed = failures verdicts; rd_render = k; rd_key = k }
  in
  let replay tr =
    let jobs = jobs_of tr ~seed (builds tr) in
    let verdicts =
      List.map
        (fun j -> Span.span tr ~layer:"bench" ~name:"task" ~unit_id:j.id (fun () -> run_job tr j))
        jobs
    in
    let outcomes = List.map (fun v -> v.v_outcome) verdicts in
    {
      units = List.length verdicts;
      failed = failures verdicts;
      completed = sum_by (fun o -> if o.Executor.completed then 1 else 0) outcomes;
      skimmed = sum_by (fun o -> if o.Executor.skimmed then 1 else 0) outcomes;
      outages = sum_by (fun o -> o.Executor.outage_count) outcomes;
      insn = sum_by (fun o -> o.Executor.retired) outcomes;
      cycles = sum_by (fun o -> o.Executor.wall_cycles) outcomes;
      energy_uj = List.fold_left (fun acc v -> acc +. (v.v_energy_j *. 1e6)) 0.0 verdicts;
      (* Outputs are bit-exact with the golden model or the task fails. *)
      nrmse_pct = 0.0;
      key = key verdicts;
      det = [];
    }
  in
  let probes () =
    let first = List.filteri (fun i _ -> i mod (2 * samples) < 2) jobs in
    machine_probe ~reps:1 (List.map (fun j -> (j.build, j.inputs)) first)
    @ supply_probe ~reps:1
        (List.map
           (fun j -> (j.build, j.inputs, Executor.Always_on, fun () -> Supply.always_on ()))
           first)
  in
  { prepare = ignore; round; replay; checks = (fun () -> (0, 0)); probes }

let workload = { name = "always-on-paper"; setup }
