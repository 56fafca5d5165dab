(* What every workload hands perfbench.ml, plus the pieces of the
   program's own pipelines that the workloads replay call by call. *)

module Span = Wn_perfbench.Span
module Stats = Wn_perfbench.Stats
module Executor = Wn_runtime.Executor
module Runner = Wn_core.Runner
module Supply = Wn_power.Supply
module Machine = Wn_machine.Machine

(* One process drives the program at this pool width (the benchmark
   host has two cores), and every run uses the block engine. *)
let jobs = 2
let engine = Executor.Block

(* One closed batch through the program's public batch entry point.
   [render] is the batch's full report, compared across rounds; [key]
   is the part of it an independent unit-by-unit replay can rebuild. *)
type round = { rd_units : int; rd_failed : int; rd_render : string; rd_key : string }

(* The same units replayed one by one through lower-level public
   calls.  Totals are simulated quantities: deterministic for a seed. *)
type replay = {
  units : int;
  failed : int;  (** units whose result disagrees with the reference *)
  completed : int;
  skimmed : int;
  outages : int;
  insn : int;  (** retired instructions, all units *)
  cycles : int;  (** wall cycles, off-time included, all units *)
  energy_uj : float;  (** drained energy, all units; 0 where not modelled *)
  nrmse_pct : float;  (** median NRMSE of committed outputs *)
  key : string;  (** must equal the batch round's [rd_key] *)
  det : (string * float) list;  (** further deterministic per-layer values *)
}

type instance = {
  prepare : unit -> unit;
      (** work the replay needs that is neither set-up nor replay (the
          program's own sampling plan); run once, before the first replay *)
  round : unit -> round;
  replay : Span.t -> replay;
  checks : unit -> int * int;
      (** further reference checks: units attempted, units failed *)
  probes : unit -> (string * float) list;
      (** per-layer measurements outside the replay (traced run only) *)
}

type workload = { name : string; setup : seed:int -> instance }

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* One device's task stream, as [Wn_core.Intermittent.run_stream] runs
   it (fresh supply and machine, samples in order, energy read off the
   supply around each task), with the executor's outcome kept: the
   replay needs retired instructions, which the library's task measure
   does not carry. *)
type task = { outcome : Executor.outcome; out : float array; energy_j : float }

let run_stream tr ~policy ~supply build samples =
  Span.span tr ~layer:"core" ~name:"run_stream" (fun () ->
      let supply = Span.span tr ~layer:"power" ~name:"Supply.create" supply in
      let machine =
        Span.span tr ~layer:"machine" ~name:"Runner.machine" (fun () ->
            Runner.machine build)
      in
      let run_name = "Executor.run/" ^ Executor.policy_name policy in
      List.map
        (fun inputs ->
          Span.span tr ~layer:"workloads" ~name:"Runner.load_sample" (fun () ->
              Runner.load_sample build machine inputs);
          let e0 = Supply.energy_consumed supply in
          let outcome =
            Span.span tr ~layer:"runtime" ~name:run_name (fun () ->
                let o = Executor.run ~policy ~engine ~machine ~supply () in
                Span.count tr o.Executor.retired;
                o)
          in
          let out =
            Span.span tr ~layer:"workloads" ~name:"Runner.output" (fun () ->
                Runner.output build machine)
          in
          { outcome; out; energy_j = Supply.energy_consumed supply -. e0 })
        samples)

let sum_by f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

(* Median of per-sample seconds, in microseconds. *)
let median_us xs = if xs = [] then 0.0 else 1e6 *. Stats.median (Array.of_list xs)

(* Raw machine stepping and state capture on a workload's builds: the
   [step_block] loop with no executor or supply around it, then one
   snapshot, a restore into a fresh machine and a digest of the
   restored memory. *)
let machine_probe ~reps samples =
  let t_step = ref 0.0 and words = ref 0.0 and retired = ref 0 and calls = ref 0 in
  let snaps = ref [] and restores = ref [] and digests = ref [] in
  for _ = 1 to reps do
    List.iter
      (fun (build, inputs) ->
        let m = Runner.machine build in
        Runner.load_sample build m inputs;
        let r0 = Machine.instructions_retired m in
        let n = ref 0 in
        let w0 = Gc.minor_words () in
        let t0 = now () in
        while not (Machine.halted m) do
          Machine.step_block m;
          incr n
        done;
        t_step := !t_step +. (now () -. t0);
        words := !words +. (Gc.minor_words () -. w0);
        retired := !retired + (Machine.instructions_retired m - r0);
        calls := !calls + !n;
        let snap, dt = timed (fun () -> Machine.snapshot m) in
        snaps := dt :: !snaps;
        let m2 = Runner.machine build in
        let (), dt = timed (fun () -> Machine.restore m2 snap) in
        restores := dt :: !restores;
        let _, dt = timed (fun () -> Wn_mem.Memory.digest (Machine.mem m2)) in
        digests := dt :: !digests)
      samples
  done;
  let per_insn v = v /. float_of_int (max 1 !retired) in
  [
    ("machine.step_ns_per_insn", per_insn (1e9 *. !t_step));
    ("machine.insn_per_dispatch", float_of_int !retired /. float_of_int (max 1 !calls));
    ("machine.alloc_words_per_insn", per_insn !words);
    ("mem.snapshot_us", median_us !snaps);
    ("mem.restore_us", median_us !restores);
    ("mem.digest_us", median_us !digests);
  ]

(* Executor cost of the workload's own supply minus that of an
   always-on supply, same build, inputs and policy: what the supply
   model adds per retired instruction. *)
let supply_probe ~reps devices =
  let ns supply_of =
    let t = ref 0.0 and retired = ref 0 in
    for _ = 1 to reps do
      List.iter
        (fun (build, inputs, policy, own_supply) ->
          let supply = supply_of own_supply in
          let m = Runner.machine build in
          Runner.load_sample build m inputs;
          let o, dt = timed (fun () -> Executor.run ~policy ~engine ~machine:m ~supply ()) in
          t := !t +. dt;
          retired := !retired + o.Executor.retired)
        devices
    done;
    1e9 *. !t /. float_of_int (max 1 !retired)
  in
  let own = ns (fun mk -> mk ()) in
  let always = ns (fun _ -> Supply.always_on ()) in
  [ ("power.supply_ns_per_insn", own -. always) ]
