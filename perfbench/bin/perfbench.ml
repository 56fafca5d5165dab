(* The repository benchmark: one workload per run.

     perfbench.exe --workload fleet-rf|inject-sweep|always-on-paper
                   --seed N --seconds S --trace 0|1 [--commit ID]
                   [--out-dir DIR]

   A run sets the workload up several times (setup_s is the median),
   replays one batch of units one by one through lower-level public
   calls (the simulated totals and the peak resident set come from
   this pass), then submits the whole batch to the program's batch
   entry point again and again for S seconds (at least three rounds) at
   a pool width of two, and checks every round against the replay.
   With --trace 1 it replays once more with a span around every call,
   derives per-layer metrics from the spans, and runs the per-layer
   probes.

   The last line of stdout is the result:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
   holding the end-to-end metrics (--trace 0) or the per-layer ones
   (--trace 1).  The line before it records provenance and the
   deterministic metrics, which must repeat exactly for a seed. *)

open Harness
module Metric = Wn_perfbench.Metric

let workloads = [ Fleet_rf.workload; Inject_sweep.workload; Always_on_paper.workload ]
let setup_reps = 5
let min_rounds = 3

(* Set-up time measured per run, in blocks of at least [setup_block_s]
   between calibrations: short set-ups repeat many times, so their
   median holds still. *)
let setup_budget_s = 4.0
let setup_block_s = 0.5

let usage msg =
  Printf.eprintf
    "perfbench: %s\n\
     usage: perfbench.exe --workload %s --seed N --seconds S --trace 0|1 [--commit ID] \
     [--out-dir DIR]\n"
    msg
    (String.concat "|" (List.map (fun w -> w.name) workloads));
  exit 2

type args = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  commit : string;
  out_dir : string;
}

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and commit = ref "unknown" and out_dir = ref ".perfbench" in
  let int_of flag v =
    match int_of_string_opt v with Some n -> n | None -> usage (flag ^ " needs an integer")
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        (match List.find_opt (fun w -> w.name = v) workloads with
        | Some w -> workload := Some w
        | None -> usage ("unknown workload " ^ v));
        go rest
    | "--seed" :: v :: rest ->
        seed := Some (int_of "--seed" v);
        go rest
    | "--seconds" :: v :: rest ->
        let s = int_of "--seconds" v in
        if s < 1 then usage "--seconds must be >= 1";
        seconds := Some (float_of_int s);
        go rest
    | "--trace" :: v :: rest ->
        (match v with
        | "0" -> trace := Some false
        | "1" -> trace := Some true
        | _ -> usage "--trace takes 0 or 1");
        go rest
    | "--commit" :: v :: rest ->
        commit := v;
        go rest
    | "--out-dir" :: v :: rest ->
        out_dir := v;
        go rest
    | a :: _ -> usage ("unexpected argument " ^ a)
  in
  go (List.tl (Array.to_list Sys.argv));
  let need name = function Some v -> v | None -> usage ("missing " ^ name) in
  {
    workload = need "--workload" !workload;
    seed = need "--seed" !seed;
    seconds = need "--seconds" !seconds;
    trace = need "--trace" !trace;
    commit = !commit;
    out_dir = !out_dir;
  }

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

let peak_rss_mib () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> kb)
    | _ -> find ()
    | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) find in
  float_of_int kb /. 1024.0

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* One timed round with its host costs.  Minor and major words come
   from [Gc.quick_stat], which folds in the pool's joined domains;
   [scaled] is [wall] rescaled by the calibrations either side of the
   round. *)
type measured = {
  result : round;
  wall : float;
  scaled : float;
  cpu : float;
  minor_words : float;
  major_words : float;
  minor_collections : int;
}

(* Each round starts from a collected heap, so no round pays for the
   garbage of the one before.  [before] is the calibration taken right
   before the round; the one taken after it is returned for the next. *)
let measure_round inst ~expected_units ~before =
  Gc.full_major ();
  let g0 = Gc.quick_stat () and c0 = cpu_s () and t0 = now () in
  let result =
    try inst.round ()
    with e ->
      log "round raised %s" (Printexc.to_string e);
      { rd_units = expected_units; rd_failed = expected_units; rd_render = ""; rd_key = "" }
  in
  let wall = now () -. t0 and cpu = cpu_s () -. c0 and g1 = Gc.quick_stat () in
  let after = Calibrate.measure ~domains:jobs in
  ( {
      result;
      wall;
      scaled = Calibrate.rescale ~before ~after wall;
      cpu;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      major_words = g1.Gc.major_words -. g0.Gc.major_words;
      minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
    },
    after )

(* One set-up from a collected heap, timed. *)
let timed_setup (w : workload) ~seed =
  Gc.full_major ();
  timed (fun () -> w.setup ~seed)

(* Further set-ups, discarded, until the run's set-up time reaches
   [setup_budget_s]: blocks of at least [setup_block_s] with a
   one-domain calibration after each.  Each set-up's time comes back
   raw and rescaled by the calibrations either side of its block. *)
let more_setups (w : workload) ~seed ~spent =
  let rec blocks before spent acc =
    if spent >= setup_budget_s then acc
    else
      let rec block t times =
        if t >= setup_block_s then times
        else
          let _, dt = timed_setup w ~seed in
          block (t +. dt) (dt :: times)
      in
      let times = block 0.0 [] in
      let after = Calibrate.measure ~domains:1 in
      blocks after
        (spent +. List.fold_left ( +. ) 0.0 times)
        (List.map (fun t -> (t, Calibrate.rescale ~before ~after t)) times @ acc)
  in
  blocks (Calibrate.measure ~domains:1) spent []

(* Every replay starts from a collected heap, so none pays for the
   garbage of what ran before it. *)
let run_replay inst tr =
  Gc.full_major ();
  match timed (fun () -> Span.span tr ~layer:"bench" ~name:"replay" (fun () -> inst.replay tr)) with
  | r, wall -> Ok (r, wall)
  | exception e -> Error (Printexc.to_string e)

let median_of f xs = Stats.median (Array.of_list (List.map f xs))

let log_spread name xs =
  let a = Array.of_list xs in
  if Array.length a >= 2 then
    let q1, q2, q3 = Stats.quartiles a in
    log "  %-22s median %.4g  quartiles %.4g / %.4g  (%d rounds)" name q2 q1 q3 (Array.length a)
  else log "  %-22s %.4g (1 round)" name a.(0)

let spans_named spans name = List.filter (fun s -> s.Span.name = name) spans

(* Mean duration of the spans with this name, times [scale] (1e3 for
   ms); 0 when the workload makes no such call. *)
let mean_dur scale spans name =
  match spans_named spans name with
  | [] -> 0.0
  | ss -> scale *. List.fold_left (fun acc s -> acc +. Span.duration s) 0.0 ss /. float_of_int (List.length ss)

let per_count scale spans names =
  let ss = List.concat_map (spans_named spans) names in
  let n = sum_by (fun s -> s.Span.count) ss in
  if n = 0 then 0.0
  else scale *. List.fold_left (fun acc s -> acc +. Span.duration s) 0.0 ss /. float_of_int n

let pct_dur scale spans name p =
  match spans_named spans name with
  | [] -> 0.0
  | ss -> scale *. Stats.percentile (Array.of_list (List.map Span.duration ss)) p

let executor_runs = List.map (fun p -> "Executor.run/" ^ p) [ "clank"; "nvp"; "always-on" ]

let span_metrics spans =
  let runs = List.concat_map (spans_named spans) executor_runs in
  let retired = sum_by (fun s -> s.Span.count) runs in
  let layer_self = Span.layer_self spans in
  [
    ("compiler.build_ms", mean_dur 1e3 spans "Runner.build");
    ("workloads.inputs_ms", mean_dur 1e3 spans "fresh_inputs");
    ("workloads.golden_ms", mean_dur 1e3 spans "golden");
    ("power.trace_ms", mean_dur 1e3 spans "Trace.rf_burst");
    ("runtime.clank.ns_per_insn", per_count 1e9 spans [ "Executor.run/clank" ]);
    ("runtime.nvp.ns_per_insn", per_count 1e9 spans [ "Executor.run/nvp" ]);
    ("runtime.always_on.ns_per_insn", per_count 1e9 spans [ "Executor.run/always-on" ]);
    ("runtime.task_ms_p50", pct_dur 1e3 spans "run_stream" 50.0);
    ("runtime.task_ms_p99", pct_dur 1e3 spans "run_stream" 99.0);
    ( "runtime.alloc_words_per_insn",
      if retired = 0 then 0.0
      else List.fold_left (fun acc s -> acc +. s.Span.words) 0.0 runs /. float_of_int retired );
    ("faults.survey_ms", mean_dur 1e3 spans "Faults.survey");
    ("faults.point_us_p50", pct_dur 1e6 spans "Faults.run_point" 50.0);
    ("faults.point_us_p99", pct_dur 1e6 spans "Faults.run_point" 99.0);
    ("faults.skim_ref_us", mean_dur 1e6 spans "Faults.skim_reference");
    ("fleet.observe_ns", per_count 1e9 spans [ "Agg.observe" ]);
    ("fleet.merge_us", mean_dur 1e6 spans "Agg.merge");
    ("trace.spans", float_of_int (List.length spans));
  ]
  @ List.map
      (fun l -> ("self_ms." ^ l, 1e3 *. Option.value (List.assoc_opt l layer_self) ~default:0.0))
      Metric.layers

(* Everything a simulator-only change must leave identical. *)
let deterministic (r : replay) =
  let per_unit v = v /. float_of_int (max 1 r.units) in
  [
    ("units", float_of_int r.units);
    ("completed", float_of_int r.completed);
    ("skimmed", float_of_int r.skimmed);
    ("outages", float_of_int r.outages);
    ("sim_insn_per_unit", per_unit (float_of_int r.insn));
    ("sim_cycles_per_unit", per_unit (float_of_int r.cycles));
    ("sim_energy_uj_per_unit", per_unit r.energy_uj);
    ("sim_nrmse_pct", r.nrmse_pct);
  ]
  @ r.det

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let () =
  let a = parse_args () in
  let w = a.workload in
  log "perfbench %s seed %d, %gs, trace %b, jobs %d" w.name a.seed a.seconds a.trace jobs;
  (* A fixed number of set-ups before the replay, so the heap the replay
     starts from — and with it the peak resident set — is the same in
     every run; a single-domain calibration runs before and after them.
     The rest of the set-up budget is spent after the peak is read. *)
  let before = Calibrate.measure ~domains:1 in
  let setups = List.init setup_reps (fun _ -> timed_setup w ~seed:a.seed) in
  let after = Calibrate.measure ~domains:1 in
  (* Only the last instance is kept; the others are garbage before the
     replay. *)
  let inst = fst (List.nth setups (setup_reps - 1)) in
  let first_setups = List.map snd setups in
  inst.prepare ();
  (* The replay runs on this domain alone, before the pool rounds, so
     the peak resident set it leaves does not depend on how two domains'
     collections interleave. *)
  let replay, replay_wall =
    match run_replay inst (Span.create ~enabled:false) with
    | Ok v -> v
    | Error e ->
        log "replay raised %s" e;
        exit 3
  in
  let peak_rss = peak_rss_mib () in
  let all_setups =
    List.map (fun t -> (t, Calibrate.rescale ~before ~after t)) first_setups
    @ more_setups w ~seed:a.seed ~spent:(List.fold_left ( +. ) 0.0 first_setups)
  in
  let setup_s = median_of snd all_setups and raw_setup = median_of fst all_setups in
  log "  setup_s %.4f (median of %d; %.4f before rescaling)" setup_s (List.length all_setups)
    raw_setup;
  let start = now () in
  let rec loop before acc =
    if List.length acc >= min_rounds && now () -. start >= a.seconds then List.rev acc
    else
      let expected_units = match acc with m :: _ -> m.result.rd_units | [] -> 1 in
      let m, after = measure_round inst ~expected_units ~before in
      loop after (m :: acc)
  in
  let rounds = loop (Calibrate.measure ~domains:jobs) [] in
  let first = (List.hd rounds).result in
  let failed = ref 0 and attempted = ref 0 and correct = ref true in
  List.iteri
    (fun i m ->
      attempted := !attempted + m.result.rd_units;
      failed := !failed + m.result.rd_failed;
      if m.result.rd_render <> first.rd_render then begin
        log "round %d report differs from round 0" i;
        failed := !failed + m.result.rd_units
      end)
    rounds;
  attempted := !attempted + replay.units;
  failed := !failed + replay.failed;
  if replay.key <> first.rd_key then begin
    log "replay disagrees with the batch report:\n  batch  %s\n  replay %s" first.rd_key replay.key;
    failed := !failed + replay.units
  end;
  (match inst.checks () with
  | n, f ->
      attempted := !attempted + n;
      failed := !failed + f
  | exception e ->
      log "reference check raised %s" (Printexc.to_string e);
      failed := !failed + 1;
      attempted := !attempted + 1);
  let insn = float_of_int replay.insn in
  if insn <= 0.0 then begin
    log "replay retired no instructions";
    exit 3
  end;
  let det = ref (deterministic replay) in
  log "  %d rounds of %d units in %.2fs; replay %.2fs" (List.length rounds) first.rd_units
    (List.fold_left (fun acc m -> acc +. m.wall) 0.0 rounds)
    replay_wall;
  let rate m = float_of_int m.result.rd_units /. m.scaled in
  let raw_rate m = float_of_int m.result.rd_units /. m.wall in
  log_spread "units_per_s" (List.map rate rounds);
  log_spread "units_per_s (raw)" (List.map raw_rate rounds);
  let total f = List.fold_left (fun acc m -> acc +. f m) 0.0 rounds in
  let round_insn = insn *. float_of_int (List.length rounds) in
  let end_to_end () =
    [
      ("setup_s", setup_s);
      ("units_per_s", median_of rate rounds);
      ("sim_minsn_per_s", median_of (fun m -> insn /. 1e6 /. m.scaled) rounds);
      ("peak_rss_mib", peak_rss);
      ("alloc_words_per_insn", median_of (fun m -> m.minor_words /. insn) rounds);
      ("sim_insn_per_unit", List.assoc "sim_insn_per_unit" !det);
      ("sim_cycles_per_unit", List.assoc "sim_cycles_per_unit" !det);
    ]
  in
  let per_layer () =
    (* Tracing overhead compares the traced replay with an untraced one
       run right before it, both after the rounds have warmed the
       process up. *)
    let replay_or_exit what tr =
      match run_replay inst tr with
      | Ok v -> v
      | Error e ->
          log "%s raised %s" what e;
          exit 3
    in
    let _, untraced_wall = replay_or_exit "untraced replay" (Span.create ~enabled:false) in
    let tr = Span.create ~enabled:true in
    let traced, traced_wall = replay_or_exit "traced replay" tr in
    if compare traced replay <> 0 then begin
      log "traced replay diverged from the untraced replay:\n  untraced %s\n  traced   %s"
        (json_obj (List.map (fun (k, v) -> (k, json_num v)) (deterministic replay)))
        (json_obj (List.map (fun (k, v) -> (k, json_num v)) (deterministic traced)));
      correct := false
    end;
    (* Every call of the traced replay sits inside some span, so the
       self times must account for the wall time measured around it, up
       to the few timer reads outside the root span. *)
    let spans = Span.spans tr in
    let self_sum = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 (Span.self_times spans) in
    if Float.abs (self_sum -. traced_wall) > 1e-3 +. (0.005 *. traced_wall) then begin
      log "layer self times sum to %.6fs, traced wall is %.6fs" self_sum traced_wall;
      correct := false
    end;
    (try Sys.mkdir a.out_dir 0o755 with Sys_error _ -> ());
    let path = Filename.concat a.out_dir (Printf.sprintf "spans-%s-seed%d.csv" w.name a.seed) in
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Span.to_csv oc spans);
    log "  traced replay %.2fs (untraced %.2fs), %d spans -> %s" traced_wall untraced_wall
      (List.length spans) path;
    let probes = inst.probes () in
    det := !det @ List.filter (fun (k, _) -> k = "machine.insn_per_dispatch") probes;
    let cpu = total (fun m -> m.cpu) and wall_total = total (fun m -> m.wall) in
    span_metrics spans @ probes
    @ [
        ("exec.cpu_utilization", cpu /. (wall_total *. float_of_int jobs));
        ( "gc.minor_collections_per_minsn",
          float_of_int (List.fold_left (fun acc m -> acc + m.minor_collections) 0 rounds)
          /. (round_insn /. 1e6) );
        ("gc.major_words_per_insn", total (fun m -> m.major_words) /. round_insn);
        ("sim_energy_uj_per_unit", List.assoc "sim_energy_uj_per_unit" !det);
        ("sim_nrmse_pct", List.assoc "sim_nrmse_pct" !det);
        ("fail_rate", float_of_int !failed /. float_of_int (max 1 !attempted));
        ("trace.units", float_of_int traced.units);
        ("trace.wall_ms", 1e3 *. traced_wall);
        ("trace.untraced_wall_ms", 1e3 *. untraced_wall);
        ("trace.overhead_ms", 1e3 *. (traced_wall -. untraced_wall));
      ]
    @ List.filter (fun (k, _) -> k = "mem.keyframe_store_mib") replay.det
  in
  let kind = if a.trace then Metric.Per_layer else Metric.End_to_end in
  let computed = if a.trace then per_layer () else end_to_end () in
  let metrics =
    List.filter_map
      (fun (name, _, k) ->
        if k <> kind then None
        else
          match List.assoc_opt name computed with
          | Some v -> Some (name, v)
          | None ->
              log "  %s: not on this workload's path, reported as 0" name;
              Some (name, 0.0))
      Metric.catalogue
  in
  let provenance =
    [
      ("workload", Printf.sprintf "%S" w.name);
      ("seed", string_of_int a.seed);
      ("commit", Printf.sprintf "%S" a.commit);
      ("jobs", string_of_int jobs);
      ("cores", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Printf.sprintf "%S" Sys.ocaml_version);
      ("engine", Printf.sprintf "%S" (Executor.engine_name engine));
      ("trace", if a.trace then "1" else "0");
    ]
  in
  print_endline
    (json_obj
       [
         ("provenance", json_obj provenance);
         ("deterministic", json_obj (List.map (fun (k, v) -> (k, json_num v)) !det));
         ( "unscaled",
           json_obj
             [
               ("setup_s", json_num raw_setup);
               ("units_per_s", json_num (median_of raw_rate rounds));
             ] );
       ]);
  print_endline
    (Metric.result_line ~correct:(!correct && !failed = 0) ~attempted:!attempted ~failed:!failed metrics)
