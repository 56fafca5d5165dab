(* Differential tests for the simulator fast path: the predecoded
   allocation-free [Machine.step_fast] against the reference
   interpreter [Machine.step_reference], lockstep over the full
   workload suite; the executor's [Fast] engine against [Compat] under
   every intermittency policy; and the zero-allocation guarantee
   itself via [Gc.minor_words]. *)

open Wn_isa
open Wn_workloads
open Wn_machine
open Wn_runtime

let wcfg = { Workload.bits = 8; provisioned = true }

let machine_configs =
  [
    ("baseline", Machine.default_config);
    ("memo+zs", { Machine.memo_entries = Some 16; Machine.zero_skip = true });
  ]

let max_lockstep_steps = 500_000

(* ---------------- machine-level lockstep ---------------- *)

let check_step_effects name step (r : Machine.step_result) fast =
  let fail fmt = Alcotest.failf ("%s step %d: " ^^ fmt) name step in
  if r.Machine.cycles <> Machine.last_cycles fast then
    fail "cycles %d vs %d" r.Machine.cycles (Machine.last_cycles fast);
  let ra, rb =
    match r.Machine.read with
    | Some a -> (a.Machine.addr, a.Machine.bytes)
    | None -> (-1, 0)
  in
  if ra <> Machine.last_read_addr fast then
    fail "read addr %d vs %d" ra (Machine.last_read_addr fast);
  if ra >= 0 && rb <> Machine.last_read_bytes fast then
    fail "read bytes %d vs %d" rb (Machine.last_read_bytes fast);
  let wa, wb =
    match r.Machine.wrote with
    | Some a -> (a.Machine.addr, a.Machine.bytes)
    | None -> (-1, 0)
  in
  if wa <> Machine.last_wrote_addr fast then
    fail "wrote addr %d vs %d" wa (Machine.last_wrote_addr fast);
  if wa >= 0 && wb <> Machine.last_wrote_bytes fast then
    fail "wrote bytes %d vs %d" wb (Machine.last_wrote_bytes fast);
  if r.Machine.memo_hit <> Machine.last_memo_hit fast then
    fail "memo_hit %b vs %b" r.Machine.memo_hit (Machine.last_memo_hit fast);
  if r.Machine.zero_skipped <> Machine.last_zero_skipped fast then
    fail "zero_skipped %b vs %b" r.Machine.zero_skipped
      (Machine.last_zero_skipped fast);
  let skm = match r.Machine.instr with Instr.Skm _ -> true | _ -> false in
  if skm <> Machine.last_was_skm fast then
    fail "skm flag %b vs %b" skm (Machine.last_was_skm fast)

let check_machines_equal name m_ref m_fast =
  let fail fmt = Alcotest.failf ("%s: " ^^ fmt) name in
  if Machine.pc m_ref <> Machine.pc m_fast then
    fail "pc %d vs %d" (Machine.pc m_ref) (Machine.pc m_fast);
  if Machine.flags m_ref <> Machine.flags m_fast then fail "flags differ";
  if Machine.halted m_ref <> Machine.halted m_fast then fail "halt differs";
  if Machine.skim_target m_ref <> Machine.skim_target m_fast then
    fail "skim target differs";
  for i = 0 to Reg.count - 1 do
    let r = Reg.r i in
    if Machine.reg m_ref r <> Machine.reg m_fast r then
      fail "r%d: %d vs %d" i (Machine.reg m_ref r) (Machine.reg m_fast r)
  done;
  if
    Machine.instructions_retired m_ref <> Machine.instructions_retired m_fast
  then
    fail "retired %d vs %d"
      (Machine.instructions_retired m_ref)
      (Machine.instructions_retired m_fast);
  if Machine.cycles_executed m_ref <> Machine.cycles_executed m_fast then
    fail "cycles %d vs %d"
      (Machine.cycles_executed m_ref)
      (Machine.cycles_executed m_fast);
  if Machine.wn_instructions m_ref <> Machine.wn_instructions m_fast then
    fail "wn retired differ";
  (match (Machine.memo m_ref, Machine.memo m_fast) with
  | Some a, Some b ->
      if Memo.hits a <> Memo.hits b || Memo.misses a <> Memo.misses b then
        fail "memo counters (%d,%d) vs (%d,%d)" (Memo.hits a) (Memo.misses a)
          (Memo.hits b) (Memo.misses b)
  | None, None -> ()
  | _ -> fail "memo presence differs");
  if
    Wn_mem.Memory.snapshot (Machine.mem m_ref)
    <> Wn_mem.Memory.snapshot (Machine.mem m_fast)
  then fail "memory images differ"

let lockstep_workload wname (cfg_name, mcfg) () =
  let w = Suite.find Workload.Small wname in
  let b = Wn_core.Runner.build w wcfg in
  let m_ref = Wn_core.Runner.machine ~machine_config:mcfg b in
  let m_fast = Wn_core.Runner.machine ~machine_config:mcfg b in
  let inputs = w.Workload.fresh_inputs (Wn_util.Rng.create 42) in
  Wn_core.Runner.load_sample b m_ref inputs;
  Wn_core.Runner.load_sample b m_fast inputs;
  let name = Printf.sprintf "%s/%s" wname cfg_name in
  let steps = ref 0 in
  while (not (Machine.halted m_ref)) && !steps < max_lockstep_steps do
    incr steps;
    let r = Machine.step_reference m_ref in
    Machine.step_fast m_fast;
    check_step_effects name !steps r m_fast;
    if Machine.pc m_ref <> Machine.pc m_fast then
      Alcotest.failf "%s step %d: pc %d vs %d" name !steps (Machine.pc m_ref)
        (Machine.pc m_fast)
  done;
  check_machines_equal name m_ref m_fast;
  if !steps = 0 then Alcotest.fail "workload executed no instructions"

(* ---------------- machine-level: step_block vs reference ----------------

   The block engine retires whole fused runs per dispatch, so the
   lockstep drives the reference interpreter forward to the block
   machine's retirement count after every dispatch and compares
   architectural state there — every block boundary is checked, and
   per-instruction fallback steps degenerate to the per-step lockstep
   above. *)

let lockstep_block_workload wname (cfg_name, mcfg) () =
  let w = Suite.find Workload.Small wname in
  let b = Wn_core.Runner.build w wcfg in
  let m_ref = Wn_core.Runner.machine ~machine_config:mcfg b in
  let m_blk = Wn_core.Runner.machine ~machine_config:mcfg b in
  let inputs = w.Workload.fresh_inputs (Wn_util.Rng.create 42) in
  Wn_core.Runner.load_sample b m_ref inputs;
  Wn_core.Runner.load_sample b m_blk inputs;
  let name = Printf.sprintf "%s/%s/block" wname cfg_name in
  let dispatches = ref 0 in
  let fused_dispatches = ref 0 in
  while (not (Machine.halted m_blk)) && !dispatches < max_lockstep_steps do
    incr dispatches;
    let before = Machine.instructions_retired m_blk in
    Machine.step_block m_blk;
    let after = Machine.instructions_retired m_blk in
    if after - before > 1 then incr fused_dispatches;
    for _ = 1 to after - before do
      ignore (Machine.step_reference m_ref)
    done;
    if Machine.pc m_ref <> Machine.pc m_blk then
      Alcotest.failf "%s dispatch %d: pc %d vs %d" name !dispatches
        (Machine.pc m_ref) (Machine.pc m_blk)
  done;
  check_machines_equal name m_ref m_blk;
  if !fused_dispatches = 0 then
    Alcotest.failf "%s: no fused block was ever dispatched" name

(* Fused-run metadata must agree with the planner it was compiled from:
   same runs, same worst-case cycle totals, same load counts. *)
let test_block_table_matches_plan () =
  List.iter
    (fun wname ->
      let w = Suite.find Workload.Small wname in
      let b = Wn_core.Runner.build w wcfg in
      let m = Wn_core.Runner.machine b in
      let program = Machine.program m in
      let plan = Wn_analysis.Fuse.plan ~memoizable:false program in
      List.iter
        (fun (r : Wn_analysis.Fuse.run) ->
          match Machine.block_at m r.Wn_analysis.Fuse.r_first with
          | None ->
              Alcotest.failf "%s: no fused block at pc %d" wname
                r.Wn_analysis.Fuse.r_first
          | Some blk ->
              Alcotest.(check int) "len" r.Wn_analysis.Fuse.r_len
                (Machine.block_len blk);
              Alcotest.(check int) "cycles" r.Wn_analysis.Fuse.r_cycles
                (Machine.block_cycles blk);
              Alcotest.(check int) "loads" r.Wn_analysis.Fuse.r_loads
                (Machine.block_loads blk);
              Alcotest.(check int) "wn" r.Wn_analysis.Fuse.r_wn
                (Machine.block_wn blk))
        plan)
    Suite.names

(* Snapshot/restore round-trip taken mid-run between block dispatches:
   the resumed machine must finish in the same state as the
   uninterrupted one. *)
let test_block_snapshot_roundtrip () =
  let w = Suite.find Workload.Small "Var" in
  let b = Wn_core.Runner.build w wcfg in
  let inputs = w.Workload.fresh_inputs (Wn_util.Rng.create 3) in
  let m1 = Wn_core.Runner.machine b in
  Wn_core.Runner.load_sample b m1 inputs;
  (* Uninterrupted block-engine run to halt. *)
  let steps = ref 0 in
  while (not (Machine.halted m1)) && !steps < max_lockstep_steps do
    incr steps;
    Machine.step_block m1
  done;
  (* Interrupted run: snapshot after 40 dispatches, restore into a
     fresh machine, finish under the block engine. *)
  let m2 = Wn_core.Runner.machine b in
  Wn_core.Runner.load_sample b m2 inputs;
  for _ = 1 to 40 do
    Machine.step_block m2
  done;
  let snap = Machine.snapshot m2 in
  let m3 = Wn_core.Runner.machine b in
  Machine.restore m3 snap;
  let steps = ref 0 in
  while (not (Machine.halted m3)) && !steps < max_lockstep_steps do
    incr steps;
    Machine.step_block m3
  done;
  check_machines_equal "Var/block snapshot roundtrip" m1 m3

(* The [step] wrapper must report exactly what [step_reference] does. *)
let test_step_wrapper () =
  let w = Suite.find Workload.Small "Var" in
  let b = Wn_core.Runner.build w wcfg in
  let mcfg = { Machine.memo_entries = Some 16; Machine.zero_skip = true } in
  let m_ref = Wn_core.Runner.machine ~machine_config:mcfg b in
  let m_wrap = Wn_core.Runner.machine ~machine_config:mcfg b in
  let inputs = w.Workload.fresh_inputs (Wn_util.Rng.create 7) in
  Wn_core.Runner.load_sample b m_ref inputs;
  Wn_core.Runner.load_sample b m_wrap inputs;
  let steps = ref 0 in
  while (not (Machine.halted m_ref)) && !steps < max_lockstep_steps do
    incr steps;
    let r = Machine.step_reference m_ref in
    let s = Machine.step m_wrap in
    if r <> s then Alcotest.failf "step %d: step_result records differ" !steps
  done;
  check_machines_equal "Var/wrapper" m_ref m_wrap

(* ---------------- executor-level: Fast vs Compat ---------------- *)

let policies =
  [
    ("always_on", Executor.Always_on);
    ("nvp", Executor.Nvp Executor.default_nvp);
    ("clank", Executor.Clank Executor.default_clank);
  ]

let run_with_engine engine b w inputs policy =
  let mcfg = { Machine.memo_entries = Some 16; Machine.zero_skip = true } in
  let m = Wn_core.Runner.machine ~machine_config:mcfg b in
  Wn_core.Runner.load_sample b m inputs;
  let trace =
    Wn_power.Trace.square ~on_ms:3 ~off_ms:30 ~power:2e-3 ~duration_s:4.0
  in
  let supply =
    Wn_power.Supply.create ~trace ~capacitor:(Wn_power.Capacitor.create ()) ()
  in
  let outcome = Executor.run ~policy ~engine ~machine:m ~supply () in
  ignore w;
  (outcome, Wn_mem.Memory.snapshot (Machine.mem m))

let check_outcomes_equal name (o_a, mem_a) (o_b, mem_b) =
  let check_int field a b =
    if a <> b then Alcotest.failf "%s: %s %d vs %d" name field a b
  in
  check_int "wall_cycles" o_a.Executor.wall_cycles o_b.Executor.wall_cycles;
  check_int "active_cycles" o_a.Executor.active_cycles
    o_b.Executor.active_cycles;
  check_int "overhead_cycles" o_a.Executor.overhead_cycles
    o_b.Executor.overhead_cycles;
  check_int "reexecuted" o_a.Executor.reexecuted_instructions
    o_b.Executor.reexecuted_instructions;
  check_int "outages" o_a.Executor.outage_count o_b.Executor.outage_count;
  check_int "checkpoints" o_a.Executor.checkpoint_count
    o_b.Executor.checkpoint_count;
  check_int "retired" o_a.Executor.retired o_b.Executor.retired;
  if o_a.Executor.completed <> o_b.Executor.completed then
    Alcotest.failf "%s: completed differs" name;
  if o_a.Executor.skimmed <> o_b.Executor.skimmed then
    Alcotest.failf "%s: skimmed differs" name;
  if o_a.Executor.first_skim_active <> o_b.Executor.first_skim_active then
    Alcotest.failf "%s: first_skim_active differs" name;
  if mem_a <> mem_b then Alcotest.failf "%s: memory images differ" name

(* All three engines, both builds (anytime with skim points and the
   precise baseline), every policy: identical outcomes and memories. *)
let executor_differential wname ~skim (pname, policy) () =
  let w = Suite.find Workload.Small wname in
  let b = Wn_core.Runner.build ~precise:(not skim) w wcfg in
  let inputs = w.Workload.fresh_inputs (Wn_util.Rng.create 11) in
  let fast = run_with_engine Executor.Fast b w inputs policy in
  let block = run_with_engine Executor.Block b w inputs policy in
  let compat = run_with_engine Executor.Compat b w inputs policy in
  let name =
    Printf.sprintf "%s/%s/skim-%s" wname pname (if skim then "on" else "off")
  in
  check_outcomes_equal (name ^ "/block-vs-fast") block fast;
  check_outcomes_equal (name ^ "/compat-vs-fast") compat fast

(* The Always_on batching path: when the supply can never cut power the
   Block engine coalesces supply consumes into one pending counter per
   block; the supply's cycle and energy accounting must come out
   exactly as Fast's per-instruction consume sequence. *)
let coalescing_regression wname () =
  let w = Suite.find Workload.Small wname in
  let b = Wn_core.Runner.build w wcfg in
  let inputs = w.Workload.fresh_inputs (Wn_util.Rng.create 13) in
  let run engine =
    let m = Wn_core.Runner.machine b in
    Wn_core.Runner.load_sample b m inputs;
    let supply = Wn_power.Supply.always_on () in
    let o = Executor.run ~policy:Executor.Always_on ~engine ~machine:m ~supply () in
    (o, Wn_power.Supply.now_cycles supply, Wn_power.Supply.energy_consumed supply)
  in
  let o_f, cycles_f, energy_f = run Executor.Fast in
  let o_b, cycles_b, energy_b = run Executor.Block in
  if cycles_f <> cycles_b then
    Alcotest.failf "%s: supply clock %d vs %d cycles" wname cycles_f cycles_b;
  if energy_f <> energy_b then
    Alcotest.failf "%s: energy %.12g vs %.12g J" wname energy_f energy_b;
  if o_f.Executor.wall_cycles <> o_b.Executor.wall_cycles then
    Alcotest.failf "%s: wall cycles differ" wname;
  if o_f.Executor.active_cycles <> o_b.Executor.active_cycles then
    Alcotest.failf "%s: active cycles differ" wname

(* ---------------- branch-terminated runs ----------------

   A counted loop whose header is a compare-and-branch: the header is a
   two-instruction fused run ending in [B.ge], taken once (loop exit)
   and untaken on every iteration (fall into the body); the body is a
   run ending in an unconditional [B] back to the header. *)

let loop_iterations = 50

let counted_loop_program =
  Asm.assemble_exn
    [
      Asm.I (Instr.Mov_imm (Reg.r 0, 0));
      Asm.I (Instr.Mov_imm (Reg.r 1, loop_iterations));
      Asm.Label "head";
      Asm.I (Instr.Cmp (Reg.r 0, Reg.r 1));
      Asm.I (Instr.B (Cond.Ge, "done"));
      Asm.I (Instr.Alu (Instr.Add, Reg.r 2, Reg.r 2, Reg.r 0));
      Asm.I (Instr.Alu_imm (Instr.Add, Reg.r 0, Reg.r 0, 1));
      Asm.I (Instr.B (Cond.Al, "head"));
      Asm.Label "done";
      Asm.I Instr.Halt;
    ]

let loop_head_pc = 2

(* [exec_block] on each run against the same number of [step_fast]
   calls: registers, flags, pc, retired and cycle counts, [last_cycles]
   and the step budget agree after every dispatch, on the header's
   taken and fall-through exits alike, and the paid per-instruction
   costs sum to the cycles the run charged. *)
let test_branch_run_exits () =
  let mk () =
    let mem = Wn_mem.Memory.create ~size:64 in
    let m = Machine.create ~program:counted_loop_program ~mem () in
    Machine.set_step_budget m (Some 100_000);
    m
  in
  let m_blk = mk () and m_fast = mk () in
  (match Machine.block_at m_blk loop_head_pc with
  | Some b when Machine.block_len b = 2 -> ()
  | _ -> Alcotest.fail "loop header is not a two-instruction fused run");
  let taken = ref 0 and fall = ref 0 in
  while not (Machine.halted m_blk) do
    let pc = Machine.pc m_blk in
    let name = Printf.sprintf "dispatch at pc %d" pc in
    (match Machine.block_at m_blk pc with
    | Some b ->
        let cycles0 = Machine.cycles_executed m_blk in
        Machine.exec_block m_blk b;
        for _ = 1 to Machine.block_len b do
          Machine.step_fast m_fast
        done;
        let paid = Array.fold_left ( + ) 0 (Machine.block_paid_costs m_blk b) in
        if Machine.cycles_executed m_blk - cycles0 <> paid then
          Alcotest.failf "%s: charged %d cycles, paid costs sum to %d" name
            (Machine.cycles_executed m_blk - cycles0)
            paid;
        if pc = loop_head_pc then
          if Machine.pc m_blk = pc + Machine.block_len b then incr fall
          else incr taken
    | None ->
        Machine.step_fast m_blk;
        Machine.step_fast m_fast);
    check_machines_equal name m_fast m_blk;
    if Machine.last_cycles m_fast <> Machine.last_cycles m_blk then
      Alcotest.failf "%s: last_cycles %d vs %d" name
        (Machine.last_cycles m_fast) (Machine.last_cycles m_blk);
    if Machine.last_pc m_fast <> Machine.last_pc m_blk then
      Alcotest.failf "%s: last_pc %d vs %d" name (Machine.last_pc m_fast)
        (Machine.last_pc m_blk);
    if Machine.step_budget m_fast <> Machine.step_budget m_blk then
      Alcotest.failf "%s: step budgets differ" name
  done;
  Alcotest.(check int) "header exits taken" 1 !taken;
  Alcotest.(check int) "header exits fallen through" loop_iterations !fall;
  Alcotest.(check int) "r2 = sum of 0..n-1"
    (loop_iterations * (loop_iterations - 1) / 2)
    (Machine.reg m_blk (Reg.r 2))

(* Executor: Block must equal Fast on a capacitor supply with a snapshot
   hook installed whose thresholds land inside branch-terminated runs.
   The entry guard prices a run at its worst (taken) cost and falls
   back to per-step execution wherever a threshold could be crossed
   mid-run, so the hook fires at the same boundaries with the same
   counters under both engines. *)
let branch_runs_with_snapshots (pname, policy) () =
  let w = Suite.find Workload.Small "Var" in
  let b = Wn_core.Runner.build w wcfg in
  let inputs = w.Workload.fresh_inputs (Wn_util.Rng.create 17) in
  let run engine =
    let m = Wn_core.Runner.machine b in
    Wn_core.Runner.load_sample b m inputs;
    let trace =
      Wn_power.Trace.square ~on_ms:3 ~off_ms:30 ~power:2e-3 ~duration_s:4.0
    in
    let supply =
      Wn_power.Supply.create ~trace ~capacitor:(Wn_power.Capacitor.create ()) ()
    in
    let fired = ref [] in
    let snapshot ~active_cycles ~wall_cycles =
      fired := (active_cycles, wall_cycles, Machine.last_pc m) :: !fired
    in
    let o =
      Executor.run ~policy ~engine ~snapshot_every:9 ~snapshot ~machine:m
        ~supply ()
    in
    ((o, Wn_mem.Memory.snapshot (Machine.mem m)), List.rev !fired, m)
  in
  let fast, fired_fast, m = run Executor.Fast in
  let block, fired_block, _ = run Executor.Block in
  let name = Printf.sprintf "Var/%s/snapshot-every-9" pname in
  check_outcomes_equal name block fast;
  if fired_fast <> fired_block then
    Alcotest.failf "%s: snapshot hook fired differently (%d vs %d calls)" name
      (List.length fired_fast) (List.length fired_block);
  (* The thresholds must actually have fallen inside some
     branch-terminated run: at a boundary after one of its interior
     instructions. *)
  let program = Machine.program m in
  let interior = Array.make (Array.length program) false in
  List.iter
    (fun (r : Wn_analysis.Fuse.run) ->
      let open Wn_analysis.Fuse in
      match program.(r.r_first + r.r_len - 1) with
      | Instr.B _ ->
          for pc = r.r_first to r.r_first + r.r_len - 2 do
            interior.(pc) <- true
          done
      | _ -> ())
    (Wn_analysis.Fuse.plan ~memoizable:false program);
  if not (List.exists (fun (_, _, pc) -> pc >= 0 && interior.(pc)) fired_fast)
  then
    Alcotest.failf "%s: no snapshot threshold fell inside a branch-terminated run"
      name

(* ---------------- zero allocation ---------------- *)

(* ALU / load / store / branch / multiply / SKM / subword-vector
   steady-state loop that cannot halt within the measured window. *)
let alloc_probe_program =
  Asm.assemble_exn
    [
      Asm.I (Instr.Mov_imm (Reg.r 0, 0));
      Asm.I (Instr.Mov_imm (Reg.r 1, 1));
      Asm.I (Instr.Mov_imm (Reg.r 2, 1_000_000));
      Asm.Label "loop";
      Asm.I
        (Instr.Ldr
           { width = Instr.Word; signed = false; rd = Reg.r 3; base = Reg.r 0; off = 0 });
      Asm.I (Instr.Alu (Instr.Add, Reg.r 3, Reg.r 3, Reg.r 1));
      Asm.I (Instr.Str { width = Instr.Word; rs = Reg.r 3; base = Reg.r 0; off = 0 });
      Asm.I (Instr.Mul (Reg.r 4, Reg.r 3, Reg.r 1));
      Asm.I (Instr.Skm "done");
      Asm.I (Instr.Add_asv (8, Reg.r 5, Reg.r 5, Reg.r 3));
      Asm.I (Instr.Sub_asv (4, Reg.r 6, Reg.r 6, Reg.r 5));
      Asm.I (Instr.Alu (Instr.Sub, Reg.r 2, Reg.r 2, Reg.r 1));
      Asm.I (Instr.Cmp_imm (Reg.r 2, 0));
      Asm.I (Instr.B (Cond.Ne, "loop"));
      Asm.Label "done";
      Asm.I Instr.Halt;
    ]

let test_step_fast_no_alloc () =
  let mem = Wn_mem.Memory.create ~size:256 in
  let config = { Machine.memo_entries = Some 16; Machine.zero_skip = true } in
  let m = Machine.create ~config ~program:alloc_probe_program ~mem () in
  (* Warm up: first executions of every closure, lazy runtime setup. *)
  for _ = 1 to 1_000 do
    Machine.step_fast m
  done;
  (* [Gc.minor_words] itself boxes its float result; measure that
     constant the same way the real measurement pays it, and subtract. *)
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  let baseline = b -. a in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Machine.step_fast m
  done;
  let w1 = Gc.minor_words () in
  let allocated = w1 -. w0 -. baseline in
  if allocated <> 0.0 then
    Alcotest.failf "step_fast allocated %.0f minor words over 10k instructions"
      allocated;
  if Machine.halted m then Alcotest.fail "probe program halted inside window"

(* Block dispatch must stay allocation-free too: the fused table and
   read ring are built once on the first dispatch (inside the warm-up),
   after which executing a block is pure mutation. *)
let test_step_block_no_alloc () =
  let mem = Wn_mem.Memory.create ~size:256 in
  let config = { Machine.memo_entries = Some 16; Machine.zero_skip = true } in
  let m = Machine.create ~config ~program:alloc_probe_program ~mem () in
  for _ = 1 to 1_000 do
    Machine.step_block m
  done;
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  let baseline = b -. a in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Machine.step_block m
  done;
  let w1 = Gc.minor_words () in
  let allocated = w1 -. w0 -. baseline in
  if allocated <> 0.0 then
    Alcotest.failf
      "step_block allocated %.0f minor words over 10k dispatches" allocated;
  if Machine.halted m then Alcotest.fail "probe program halted inside window"

(* The capacitor-backed supply's per-instruction calls must not
   allocate either.  The clock is fast enough that the whole window
   stays inside one trace tick: re-anchoring the cached tick at a tick
   edge reads a boxed power sample, once per tick rather than per
   instruction. *)
let test_supply_no_alloc () =
  let trace = Wn_power.Trace.rf_burst ~seed:3 ~duration_s:1.0 () in
  let supply =
    Wn_power.Supply.create ~clock_hz:24e9 ~cycle_energy:1e-13 ~trace
      ~capacitor:(Wn_power.Capacitor.create ()) ()
  in
  let costs = [| 1; 2; 16; 1; 3; 1; 16; 1 |] in
  let calls () =
    for _ = 1 to 10_000 do
      ignore (Wn_power.Supply.consume supply ~cycles:16);
      ignore (Wn_power.Supply.consume_run supply ~costs);
      ignore (Wn_power.Supply.assured supply ~cycles:41)
    done
  in
  calls ();
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  let baseline = b -. a in
  let w0 = Gc.minor_words () in
  calls ();
  let w1 = Gc.minor_words () in
  let allocated = w1 -. w0 -. baseline in
  if allocated <> 0.0 then
    Alcotest.failf
      "capacitor supply allocated %.0f minor words over 10k consume, \
       consume_run and assured calls"
      allocated;
  if Wn_power.Supply.now_cycles supply >= 24_000_000 then
    Alcotest.fail "measured window crossed a trace tick";
  if not (Wn_power.Supply.is_on supply) then
    Alcotest.fail "supply browned out inside the window"

let () =
  let lockstep_cases =
    List.concat_map
      (fun wname ->
        List.map
          (fun (cfg_name, mcfg) ->
            Alcotest.test_case
              (Printf.sprintf "%s %s" wname cfg_name)
              `Quick
              (lockstep_workload wname (cfg_name, mcfg)))
          machine_configs)
      Suite.names
  in
  let block_lockstep_cases =
    List.concat_map
      (fun wname ->
        List.map
          (fun (cfg_name, mcfg) ->
            Alcotest.test_case
              (Printf.sprintf "%s %s" wname cfg_name)
              `Quick
              (lockstep_block_workload wname (cfg_name, mcfg)))
          machine_configs)
      Suite.names
  in
  let executor_cases =
    List.concat_map
      (fun wname ->
        List.concat_map
          (fun skim ->
            List.map
              (fun p ->
                Alcotest.test_case
                  (Printf.sprintf "%s %s skim-%s" wname (fst p)
                     (if skim then "on" else "off"))
                  `Quick
                  (executor_differential wname ~skim p))
              policies)
          [ true; false ])
      [ "Var"; "Home"; "MatAdd" ]
  in
  let coalescing_cases =
    List.map
      (fun wname ->
        Alcotest.test_case wname `Quick (coalescing_regression wname))
      [ "Var"; "MatAdd" ]
  in
  Alcotest.run "wn.fastpath"
    [
      ("machine lockstep", lockstep_cases);
      ("block lockstep", block_lockstep_cases);
      ( "block table",
        [
          Alcotest.test_case "matches fusion plan" `Quick
            test_block_table_matches_plan;
          Alcotest.test_case "snapshot roundtrip" `Quick
            test_block_snapshot_roundtrip;
        ] );
      ( "step wrapper",
        [ Alcotest.test_case "record identical" `Quick test_step_wrapper ] );
      ("executor engines", executor_cases);
      ("always-on coalescing", coalescing_cases);
      ( "branch runs",
        Alcotest.test_case "taken and fall-through exits" `Quick
          test_branch_run_exits
        :: List.map
             (fun p ->
               Alcotest.test_case
                 (Printf.sprintf "snapshot inside run, %s" (fst p))
                 `Quick (branch_runs_with_snapshots p))
             policies );
      ( "allocation",
        [
          Alcotest.test_case "step_fast allocation-free" `Quick
            test_step_fast_no_alloc;
          Alcotest.test_case "step_block allocation-free" `Quick
            test_step_block_no_alloc;
          Alcotest.test_case "capacitor supply allocation-free" `Quick
            test_supply_no_alloc;
        ] );
    ]
