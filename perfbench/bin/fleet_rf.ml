(* fleet-rf: the deployment path.  Every Table I kernel under Clank and
   NVP at 4- and 8-bit subwords, one device each on its own RF trace
   and 10 uF capacitor, so every instruction drains the capacitor and
   the power and runtime layers dominate. *)

open Harness
module Fleet = Wn_fleet.Fleet
module Agg = Wn_fleet.Agg
module Intermittent = Wn_core.Intermittent
module Workload = Wn_workloads.Workload
module Suite = Wn_workloads.Suite

(* Eight devices per configuration per round, so device simulation
   outweighs the twelve compiles [Fleet.run] does first; the re-run
   slice holds one device of each configuration. *)
let configs = List.length Suite.names * 2 * 2
let devices = 8 * configs
let slice = configs

let descriptor ~seed ~devices =
  {
    Fleet.default with
    Fleet.devices;
    benchmarks = Suite.names;
    systems = [ Intermittent.Clank; Intermittent.Nvp ];
    bits_list = [ 4; 8 ];
    seed;
    engine;
  }

let render r = Format.asprintf "%a" Fleet.pp r ^ Fleet.to_json r

let key ~tasks ~completed ~skimmed summaries =
  String.concat "|"
    (Printf.sprintf "%d %d %d" tasks completed skimmed
    :: List.map (Format.asprintf "%a" Agg.pp_summary) summaries)

let builds tr (d : Fleet.descriptor) =
  List.concat_map
    (fun bench ->
      List.map
        (fun bits ->
          let w = Suite.find d.Fleet.scale bench in
          let cfg = { Workload.bits; provisioned = true } in
          ( (bench, bits),
            (w, Span.span tr ~layer:"compiler" ~name:"Runner.build" (fun () -> Runner.build w cfg)) ))
        d.Fleet.bits_list)
    d.Fleet.benchmarks

let inputs tr (d : Fleet.descriptor) (w : Workload.t) (spec : Fleet.unit_spec) =
  Span.span tr ~layer:"workloads" ~name:"fresh_inputs" (fun () ->
      let rng = Wn_util.Rng.create spec.Fleet.input_seed in
      List.init d.Fleet.samples_per_device (fun _ -> w.Workload.fresh_inputs rng))

let trace tr (d : Fleet.descriptor) (spec : Fleet.unit_spec) =
  Span.span tr ~layer:"power" ~name:"Trace.rf_burst" (fun () ->
      Wn_power.Trace.rf_burst ~seed:spec.Fleet.trace_seed
        ~duration_s:d.Fleet.trace_duration_s ())

let capacitor_supply (d : Fleet.descriptor) trace () =
  Supply.create ~cycle_energy:d.Fleet.cycle_energy ~trace
    ~capacitor:(Wn_power.Capacitor.create ~capacitance:d.Fleet.capacitance ())
    ()

(* The fleet pipeline unit by unit: the same batch partition, the same
   per-device stream and the same aggregation order as [Fleet.run], so
   the rebuilt summaries must equal the batch report's bit for bit. *)
let replay d tr =
  let specs = Span.span tr ~layer:"fleet" ~name:"Fleet.expand" (fun () -> Fleet.expand d) in
  let builds = builds tr d in
  let batch = Fleet.batch_size d in
  let metric () = Agg.metric ~capacity:d.Fleet.sketch_capacity () in
  let completed = ref 0 and skimmed = ref 0 and outages = ref 0 in
  let insn = ref 0 and cycles = ref 0 and energy = ref 0.0 and tasks = ref 0 in
  let chunk first =
    let quality = metric () and energy_m = metric () and outage_m = metric () in
    let ontime = metric () in
    for i = first to min (Array.length specs) (first + batch) - 1 do
      let spec = specs.(i) in
      Span.span tr ~layer:"bench" ~name:"device" ~unit_id:spec.Fleet.device (fun () ->
          let w, build = List.assoc (spec.Fleet.bench, spec.Fleet.bits) builds in
          let samples = inputs tr d w spec in
          let trace = trace tr d spec in
          let policy = Intermittent.policy spec.Fleet.system in
          let results =
            run_stream tr ~policy ~supply:(capacitor_supply d trace) build samples
          in
          List.iter2
            (fun sample t ->
              let o = t.outcome in
              incr tasks;
              insn := !insn + o.Executor.retired;
              cycles := !cycles + o.Executor.wall_cycles;
              outages := !outages + o.Executor.outage_count;
              energy := !energy +. (t.energy_j *. 1e6);
              let nrmse =
                if o.Executor.completed then begin
                  incr completed;
                  if o.Executor.skimmed then incr skimmed;
                  let golden =
                    Span.span tr ~layer:"workloads" ~name:"golden" (fun () ->
                        w.Workload.golden sample)
                  in
                  Some
                    (Span.span tr ~layer:"util" ~name:"nrmse_pct" (fun () ->
                         Runner.nrmse_pct ~reference:golden t.out))
                end
                else None
              in
              Span.span tr ~layer:"fleet" ~name:"Agg.observe" (fun () ->
                  Option.iter
                    (fun v ->
                      Agg.observe quality v;
                      Span.count tr 1)
                    nrmse;
                  Agg.observe energy_m (t.energy_j *. 1e6);
                  Agg.observe outage_m (float_of_int o.Executor.outage_count);
                  Agg.observe ontime
                    (if o.Executor.wall_cycles = 0 then 0.0
                     else
                       100.0
                       *. float_of_int (o.Executor.active_cycles + o.Executor.overhead_cycles)
                       /. float_of_int o.Executor.wall_cycles);
                  Span.count tr 3))
            samples results)
    done;
    [ quality; energy_m; outage_m; ontime ]
  in
  let rec chunks first acc =
    if first >= Array.length specs then List.rev acc
    else chunks (first + batch) (chunk first :: acc)
  in
  let merged =
    match chunks 0 [] with
    | [] -> invalid_arg "fleet-rf: empty fleet"
    | first :: rest ->
        List.fold_left
          (fun acc ms ->
            Span.span tr ~layer:"fleet" ~name:"Agg.merge" (fun () -> List.map2 Agg.merge acc ms))
          first rest
  in
  let summaries =
    Span.span tr ~layer:"fleet" ~name:"Agg.summarize" (fun () -> List.map Agg.summarize merged)
  in
  {
    units = Array.length specs;
    failed = 0;
    completed = !completed;
    skimmed = !skimmed;
    outages = !outages;
    insn = !insn;
    cycles = !cycles;
    energy_uj = !energy;
    nrmse_pct = (List.hd summaries).Agg.p50;
    key = key ~tasks:!tasks ~completed:!completed ~skimmed:!skimmed summaries;
    det = [];
  }

let setup ~seed =
  let d = descriptor ~seed ~devices in
  let quiet = Span.create ~enabled:false in
  let builds = builds quiet d in
  let specs = Fleet.expand d in
  (* Every device's inputs and trace count towards set-up; the probes
     keep only the first device of each configuration, so the rest is
     garbage before the peak resident set is read. *)
  let prepared =
    Array.map
      (fun spec ->
        let w, build = List.assoc (spec.Fleet.bench, spec.Fleet.bits) builds in
        (spec, build, inputs quiet d w spec, trace quiet d spec))
      specs
  in
  let representatives =
    Array.to_list (Array.sub prepared 0 (min configs (Array.length prepared)))
  in
  let round () =
    let r = Fleet.run ~jobs d in
    {
      rd_units = r.Fleet.units;
      rd_failed = 0;
      rd_render = render r;
      rd_key =
        key ~tasks:r.Fleet.tasks ~completed:r.Fleet.completed ~skimmed:r.Fleet.skimmed
          [ r.Fleet.quality; r.Fleet.energy; r.Fleet.outages; r.Fleet.ontime ];
    }
  in
  (* The jobs-independence guarantee: a slice of the fleet re-run on one
     domain must render the report the pool renders. *)
  let checks () =
    let s = descriptor ~seed ~devices:slice in
    let one = render (Fleet.run ~jobs:1 s) and two = render (Fleet.run ~jobs s) in
    (2 * slice, if one = two then 0 else 2 * slice)
  in
  let probes () =
    machine_probe ~reps:2
      (List.map (fun (_, build, samples, _) -> (build, List.hd samples)) representatives)
    @ supply_probe ~reps:2
        (List.map
           (fun (spec, build, samples, trace) ->
             ( build,
               List.hd samples,
               Intermittent.policy spec.Fleet.system,
               capacitor_supply d trace ))
           representatives)
  in
  { prepare = ignore; round; replay = replay d; checks; probes }

let workload = { name = "fleet-rf"; setup }
