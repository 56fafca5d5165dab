(* inject-sweep: scripted outages audited by the crash-consistency
   oracle.  An exhaustive MatAdd sweep (every instruction boundary) and
   a sampled sweep of Conv2d, the kernel with the largest footprint,
   under Clank and NVP.  No capacitor is involved: the fault-injection
   survey, keyframe capture and restore, and memory digests dominate. *)

open Harness
module Inject = Wn_core.Inject
module Faults = Wn_faults.Faults
module Intermittent = Wn_core.Intermittent
module Workload = Wn_workloads.Workload
module Suite = Wn_workloads.Suite

let conv_points = 300

let parts ~seed =
  let config system =
    {
      Inject.default_config with
      Inject.system;
      skim = true;
      bits = 8;
      input_seed = seed;
      sample_seed = seed + 1;
      engine;
    }
  in
  [
    ("MatAdd", Inject.Exhaustive, config Intermittent.Clank);
    ("Conv2d", Inject.Sampled conv_points, config Intermittent.Clank);
    ("Conv2d", Inject.Sampled conv_points, config Intermittent.Nvp);
  ]

let workload_of name = Suite.find Workload.Small name

(* The scenario [Inject.sweep] builds: one compiled build and one input
   sample, a fresh loaded machine per call. *)
let scenario tr (w : Workload.t) (config : Inject.config) =
  let cfg = { Workload.bits = config.Inject.bits; provisioned = true } in
  let b =
    Span.span tr ~layer:"compiler" ~name:"Runner.build" (fun () ->
        Runner.build ~precise:(not config.Inject.skim) w cfg)
  in
  let inputs =
    Span.span tr ~layer:"workloads" ~name:"fresh_inputs" (fun () ->
        w.Workload.fresh_inputs (Wn_util.Rng.create config.Inject.input_seed))
  in
  let fresh () =
    let m = Runner.machine b in
    Runner.load_sample b m inputs;
    m
  in
  (b, inputs, { Faults.fresh; policy = Intermittent.policy config.Inject.system })

let violated (r : Inject.report) =
  List.length (List.sort_uniq compare (List.map fst r.Inject.violations))

let part_key ~points ~skims ~violations = Printf.sprintf "%d %d %d" points skims violations

let store_mib (kfs : Faults.keyframes option) =
  match kfs with
  | None -> 0.0
  | Some k ->
      float_of_int (Obj.reachable_words (Obj.repr k) * (Sys.word_size / 8))
      /. (1024.0 *. 1024.0)

(* The boundaries each part injects.  The sampling plan is the
   program's own and not exposed, so a one-domain sweep reports it;
   an exhaustive part injects every boundary of the profiled run. *)
let plan (name, mode, config) =
  match mode with
  | Inject.Exhaustive -> None
  | Inject.Sampled _ ->
      Some (Inject.sweep ~jobs:1 ~mode ~config (workload_of name)).Inject.boundaries

(* One sweep's points one by one, as [Inject.sweep] runs them: profile,
   survey with the planned boundaries and delta keyframes, then per
   point the injected run, the skim reference where a commit is
   expected, and the oracle — on one scratch machine, with one skim
   cache. *)
let replay_part tr ~first_unit (name, _, config) planned =
  let w = workload_of name in
  let _, _, scen = scenario tr w config in
  let prof = Span.span tr ~layer:"faults" ~name:"Faults.profile" (fun () -> Faults.profile scen) in
  let boundaries =
    match planned with
    | Some b -> b
    | None -> Array.init (max 0 (prof.Faults.retired - 1)) (fun i -> i + 1)
  in
  let interval =
    Faults.auto_keyframe_interval ~boundaries:(max 1 (prof.Faults.retired - 1))
  in
  let s =
    Span.span tr ~layer:"faults" ~name:"Faults.survey" (fun () ->
        Faults.survey ~boundaries ~keyframe_interval:interval ~full_frames:false scen)
  in
  let keyframes = s.Faults.sv_keyframes in
  let cache = Faults.skim_cache () in
  let machine = Some (scen.Faults.fresh ()) in
  let failed = ref 0 and completed = ref 0 and skimmed = ref 0 and outages = ref 0 in
  let insn = ref 0 and cycles = ref 0 in
  Array.iteri
    (fun i boundary ->
      Span.span tr ~layer:"bench" ~name:"point" ~unit_id:(first_unit + i) (fun () ->
          let res =
            Span.span tr ~layer:"faults" ~name:"Faults.run_point" (fun () ->
                Faults.run_point ~engine ~off_cycles:config.Inject.off_cycles ?keyframes
                  ?machine scen ~boundary)
          in
          let expect_skim =
            match prof.Faults.first_skim with Some f -> f <= boundary | None -> false
          in
          let skim_ref =
            if expect_skim then
              Span.span tr ~layer:"faults" ~name:"Faults.skim_reference" (fun () ->
                  Faults.skim_reference ?keyframes ~cache
                    ~prefix_digest:s.Faults.sv_digests.(i) ?machine scen ~boundary)
            else None
          in
          let vs =
            Span.span tr ~layer:"faults" ~name:"Faults.check" (fun () ->
                Faults.check ~profile:prof ~prefix_digest:s.Faults.sv_digests.(i) ~skim_ref res)
          in
          let o = res.Faults.outcome in
          if vs <> [] then incr failed;
          if o.Executor.completed then incr completed;
          if o.Executor.skimmed then incr skimmed;
          outages := !outages + o.Executor.outage_count;
          insn := !insn + o.Executor.retired;
          cycles := !cycles + o.Executor.wall_cycles))
    boundaries;
  ( {
      units = Array.length boundaries;
      failed = !failed;
      completed = !completed;
      skimmed = !skimmed;
      outages = !outages;
      insn = !insn;
      cycles = !cycles;
      energy_uj = 0.0;
      nrmse_pct = 0.0;
      key = part_key ~points:(Array.length boundaries) ~skims:!skimmed ~violations:!failed;
      det = [];
    },
    store_mib keyframes )

let setup ~seed =
  let parts = parts ~seed in
  let quiet = Span.create ~enabled:false in
  let scenarios =
    List.map (fun (name, _, config) -> scenario quiet (workload_of name) config) parts
  in
  let round () =
    let reports =
      List.map (fun (name, mode, config) -> Inject.sweep ~jobs ~mode ~config (workload_of name)) parts
    in
    {
      rd_units = List.fold_left (fun acc r -> acc + r.Inject.points) 0 reports;
      rd_failed = List.fold_left (fun acc r -> acc + violated r) 0 reports;
      rd_render = String.concat "" (List.map (Format.asprintf "%a" Inject.pp) reports);
      rd_key =
        String.concat "|"
          (List.map
             (fun r ->
               part_key ~points:r.Inject.points ~skims:r.Inject.skim_commits
                 ~violations:(violated r))
             reports);
    }
  in
  (* Worked out once, before the first replay, so no replay spends
     time on it. *)
  let plans = lazy (List.map plan parts) in
  let replay tr =
    let results, _ =
      List.fold_left2
        (fun (acc, first_unit) part planned ->
          let ((p, _) as res) = replay_part tr ~first_unit part planned in
          (res :: acc, first_unit + p.units))
        ([], 0) parts (Lazy.force plans)
    in
    let results = List.rev results in
    let sum f = List.fold_left (fun acc (p, _) -> acc + f p) 0 results in
    {
      units = sum (fun p -> p.units);
      failed = sum (fun p -> p.failed);
      completed = sum (fun p -> p.completed);
      skimmed = sum (fun p -> p.skimmed);
      outages = sum (fun p -> p.outages);
      insn = sum (fun p -> p.insn);
      cycles = sum (fun p -> p.cycles);
      energy_uj = 0.0;
      nrmse_pct = 0.0;
      key = String.concat "|" (List.map (fun (p, _) -> p.key) results);
      det =
        [ ("mem.keyframe_store_mib", List.fold_left (fun acc (_, m) -> acc +. m) 0.0 results) ];
    }
  in
  let probes () =
    machine_probe ~reps:3 (List.map (fun (b, inputs, _) -> (b, inputs)) scenarios)
  in
  {
    prepare = (fun () -> ignore (Lazy.force plans));
    round;
    replay;
    checks = (fun () -> (0, 0));
    probes;
  }

let workload = { name = "inject-sweep"; setup }
