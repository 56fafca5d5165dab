(* Wall-time benchmark for the fleet simulation service (wn.fleet).

   Simulates a 10k-unit fleet of [Fleet.default] devices (MatAdd,
   8-bit, Clank, each on its own RF trace and 10 uF capacitor) through
   the streaming aggregator, checks on a smaller fleet that the report
   stays byte-identical across --jobs (the service's core guarantee),
   and persists the wall time and throughput to BENCH_fleet.json in the
   wn-bench/1 shape, so successive commits leave a comparable
   trajectory.

   Usage:
     dune exec bench/fleet_bench.exe                   # 10k-unit MatAdd fleet
     dune exec bench/fleet_bench.exe -- --devices 2000
     dune exec bench/fleet_bench.exe -- --jobs 4
     dune exec bench/fleet_bench.exe -- --bench-json F *)

let usage () =
  prerr_endline
    "usage: fleet_bench.exe [--devices N] [--jobs N] [--bench-json PATH]";
  exit 2

let parse_args () =
  let devices = ref 10_000 in
  let jobs = ref (Wn_exec.Pool.default_jobs ()) in
  let bench_json = ref "BENCH_fleet.json" in
  let int_arg flag n ~min =
    match int_of_string_opt n with
    | Some v when v >= min -> v
    | _ ->
        Printf.eprintf "%s needs an integer >= %d, got %S\n" flag min n;
        usage ()
  in
  let rec go = function
    | [] -> ()
    | "--devices" :: n :: rest ->
        devices := int_arg "--devices" n ~min:1;
        go rest
    | "--jobs" :: n :: rest ->
        jobs := int_arg "--jobs" n ~min:1;
        go rest
    | "--bench-json" :: path :: rest ->
        bench_json := path;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  (!devices, !jobs, !bench_json)

let write_bench_json path rows =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"schema\": \"wn-bench/1\",\n";
  Printf.fprintf oc "  \"unit\": \"mixed\",\n";
  Printf.fprintf oc "  \"results\": {";
  List.iteri
    (fun i (name, v) ->
      Printf.fprintf oc "%s\n    %S: %.3f" (if i = 0 then "" else ",") name v)
    rows;
  Printf.fprintf oc "\n  }\n}\n";
  close_out oc

let render r =
  Format.asprintf "%a" Wn_fleet.Fleet.pp r ^ Wn_fleet.Fleet.to_json r

let () =
  let devices, jobs, bench_json = parse_args () in
  (* Jobs-identity first, on a small fleet: the batch partition — not
     the pool width — defines aggregation order, so every jobs value
     must render the identical report.  Any difference is a
     correctness bug; fail loudly rather than record a time. *)
  let small = { Wn_fleet.Fleet.default with Wn_fleet.Fleet.devices = 100 } in
  let reference = render (Wn_fleet.Fleet.run ~jobs:1 small) in
  List.iter
    (fun j ->
      if render (Wn_fleet.Fleet.run ~jobs:j small) <> reference then begin
        Printf.eprintf "fleet report at jobs=%d diverged from jobs=1!\n" j;
        exit 1
      end)
    [ 2; 8 ];
  Printf.eprintf "[fleet: jobs 1/2/8 byte-identical on %d units]\n%!"
    small.Wn_fleet.Fleet.devices;
  (* The headline run: a fleet large enough that per-sample storage
     would dominate, aggregated in bounded memory. *)
  let d = { Wn_fleet.Fleet.default with Wn_fleet.Fleet.devices } in
  let t0 = Unix.gettimeofday () in
  let report = Wn_fleet.Fleet.run ~jobs d in
  let dt = Unix.gettimeofday () -. t0 in
  let throughput = float_of_int report.Wn_fleet.Fleet.units /. dt in
  Printf.eprintf "[fleet: %d units in %.2fs, %.0f units/s, %d jobs]\n%!"
    report.Wn_fleet.Fleet.units dt throughput jobs;
  if report.Wn_fleet.Fleet.tasks < devices then begin
    Printf.eprintf "fleet dropped tasks: %d < %d\n" report.Wn_fleet.Fleet.tasks
      devices;
    exit 1
  end;
  write_bench_json bench_json
    [
      (Printf.sprintf "fleet:%d_units_wall_s" devices, dt);
      (Printf.sprintf "fleet:%d_units_per_s" devices, throughput);
      ( Printf.sprintf "fleet:%d_completed_pct" devices,
        100.0
        *. float_of_int report.Wn_fleet.Fleet.completed
        /. float_of_int report.Wn_fleet.Fleet.tasks );
    ];
  Printf.eprintf "[fleet bench written to %s]\n%!" bench_json
