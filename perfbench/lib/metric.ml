let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && is_alnum s.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (fun c -> is_alnum c || c = '_' || c = '/' || c = '%' || c = '.' || c = '-')
       s

type kind = End_to_end | Per_layer

let layers =
  [ "bench"; "core"; "compiler"; "workloads"; "power"; "machine"; "runtime";
    "faults"; "fleet"; "util" ]

let catalogue =
  List.map
    (fun (n, u) -> (n, u, End_to_end))
    [
      ("setup_s", "s");
      ("units_per_s", "1/s");
      ("sim_minsn_per_s", "Minsn/s");
      ("peak_rss_mib", "MiB");
      ("alloc_words_per_insn", "words/insn");
      ("sim_insn_per_unit", "insn");
      ("sim_cycles_per_unit", "cycles");
    ]
  @ List.map
      (fun (n, u) -> (n, u, Per_layer))
      ([
         ("compiler.build_ms", "ms");
         ("workloads.inputs_ms", "ms");
         ("workloads.golden_ms", "ms");
         ("power.trace_ms", "ms");
         ("power.supply_ns_per_insn", "ns/insn");
         ("machine.step_ns_per_insn", "ns/insn");
         ("machine.insn_per_dispatch", "insn");
         ("machine.alloc_words_per_insn", "words/insn");
         ("runtime.clank.ns_per_insn", "ns/insn");
         ("runtime.nvp.ns_per_insn", "ns/insn");
         ("runtime.always_on.ns_per_insn", "ns/insn");
         ("runtime.task_ms_p50", "ms");
         ("runtime.task_ms_p99", "ms");
         ("runtime.alloc_words_per_insn", "words/insn");
         ("faults.survey_ms", "ms");
         ("faults.point_us_p50", "us");
         ("faults.point_us_p99", "us");
         ("faults.skim_ref_us", "us");
         ("mem.keyframe_store_mib", "MiB");
         ("mem.snapshot_us", "us");
         ("mem.restore_us", "us");
         ("mem.digest_us", "us");
         ("fleet.observe_ns", "ns");
         ("fleet.merge_us", "us");
         ("exec.cpu_utilization", "ratio");
         ("gc.minor_collections_per_minsn", "1/Minsn");
         ("gc.major_words_per_insn", "words/insn");
         ("sim_energy_uj_per_unit", "uJ");
         ("sim_nrmse_pct", "%");
         ("fail_rate", "ratio");
         ("trace.units", "count");
         ("trace.spans", "count");
         ("trace.wall_ms", "ms");
         ("trace.untraced_wall_ms", "ms");
         ("trace.overhead_ms", "ms");
       ]
      @ List.map (fun l -> ("self_ms." ^ l, "ms")) layers)

let unit_of name =
  let _, u, _ = List.find (fun (n, _, _) -> n = name) catalogue in
  u

let result_line ~correct ~attempted ~failed metrics =
  let seen = Hashtbl.create 64 in
  let field (name, v) =
    if not (valid_name name) then invalid_arg ("metric name " ^ name);
    if Hashtbl.mem seen name then invalid_arg ("repeated metric " ^ name);
    Hashtbl.add seen name ();
    if not (Float.is_finite v) then invalid_arg ("non-finite metric " ^ name);
    let u = try unit_of name with Not_found -> invalid_arg ("unknown metric " ^ name) in
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v u
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map field metrics))
