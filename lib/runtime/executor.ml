open Wn_isa
open Wn_machine
open Wn_power

type nvp_config = { nvp_restore_cycles : int }

let default_nvp = { nvp_restore_cycles = 8 }

type clank_config = {
  watchdog_period : int;
  buffer_entries : int;
  checkpoint_cycles : int;
  clank_restore_cycles : int;
}

let default_clank =
  {
    watchdog_period = 8_000;
    buffer_entries = 2_048;
    checkpoint_cycles = 40;
    clank_restore_cycles = 40;
  }

type policy = Always_on | Nvp of nvp_config | Clank of clank_config

let policy_name = function
  | Always_on -> "always-on"
  | Nvp _ -> "nvp"
  | Clank _ -> "clank"

type engine = Fast | Block | Compat

let engine_name = function Fast -> "fast" | Block -> "block" | Compat -> "compat"

let engine_of_string = function
  | "fast" -> Some Fast
  | "block" -> Some Block
  | "compat" -> Some Compat
  | _ -> None

type outcome = {
  completed : bool;
  skimmed : bool;
  first_skim_active : int option;
  wall_cycles : int;
  active_cycles : int;
  overhead_cycles : int;
  reexecuted_instructions : int;
  outage_count : int;
  checkpoint_count : int;
  retired : int;
}

type snapshot_hook = active_cycles:int -> wall_cycles:int -> unit

(* Clank epoch state: the last checkpoint plus the read-first/write
   sets used to detect idempotency (write-after-read) violations at
   word granularity.  The sets live in a [shadow] map over data memory
   — one int per word holding [(epoch lsl 2) lor bits] (bit 0: read
   first this epoch, bit 1: fully written this epoch) — so membership
   tests and inserts are array indexing instead of hashing, and
   clearing the sets at a checkpoint is an epoch increment: entries
   stamped with an older epoch simply read as empty.  That keeps the
   checkpoint commit O(1) instead of O(shadow) on the hot path.
   [tracked] counts set bits across both planes (a word in both planes
   counts twice), mirroring the hardware's two tracking buffers filling
   independently.

   The written plane only holds words *fully* overwritten this epoch: a
   partial (byte/halfword) store must not suppress read tracking of its
   sibling bytes, or a later write to them would escape WAR detection
   and re-execution would read the new value. *)
type clank_state = {
  mutable checkpoint : Machine.register_file;
  shadow : int array;
  mutable epoch : int;
  mutable tracked : int;
  mutable since_ckpt_cycles : int;
  mutable since_ckpt_retired : int;
}

let read_bit = 1
let write_bit = 2

let shadow_bits st w =
  let v = Array.unsafe_get st.shadow w in
  if v lsr 2 = st.epoch then v land 3 else 0

let shadow_set st w bit =
  Array.unsafe_set st.shadow w ((st.epoch lsl 2) lor shadow_bits st w lor bit)

let shadow_clear st =
  st.epoch <- st.epoch + 1;
  st.tracked <- 0

(* Resume states carry the shadow sets in the dense 2-bits-per-word
   packed form (four words per byte), normalised to drop the epoch
   stamps: keyframe stores hold many resume states, and the packed
   form is 1/32nd the live array's size. *)
let pack_shadow st =
  let words = Array.length st.shadow in
  let b = Bytes.make ((words + 3) / 4) '\000' in
  for w = 0 to words - 1 do
    let bits = shadow_bits st w in
    if bits <> 0 then
      let i = w lsr 2 in
      Bytes.unsafe_set b i
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get b i) lor (bits lsl ((w land 3) * 2))))
  done;
  b

(* Bare bits carry epoch stamp 0, matching the fresh state's epoch. *)
let unpack_shadow packed words =
  Array.init words (fun w ->
      Char.code (Bytes.unsafe_get packed (w lsr 2)) lsr ((w land 3) * 2) land 3)

let word_of_addr addr = addr lsr 2

(* Per-PC store-operand table, built once per [run]: for each PC that
   holds a store, the registers/offset needed to compute its target
   address from the live register file.  Replaces re-matching the
   instruction ADT on every step of the WAR-violation pre-check. *)
type store_table = {
  (* 0 = not a store, 1 = Str (base + off), 2 = Str_reg (base + idx) *)
  st_kind : int array;
  st_base : Reg.t array;
  st_off : int array;
  st_idx : Reg.t array;
}

let build_store_table program =
  let n = Array.length program in
  let t =
    {
      st_kind = Array.make n 0;
      st_base = Array.make n (Reg.r 0);
      st_off = Array.make n 0;
      st_idx = Array.make n (Reg.r 0);
    }
  in
  Array.iteri
    (fun pc i ->
      match i with
      | Instr.Str { base; off; _ } ->
          t.st_kind.(pc) <- 1;
          t.st_base.(pc) <- base;
          t.st_off.(pc) <- off
      | Instr.Str_reg { base; idx; _ } ->
          t.st_kind.(pc) <- 2;
          t.st_base.(pc) <- base;
          t.st_idx.(pc) <- idx
      | _ -> ())
    program;
  t

(* Mid-run resume state: the loop counters plus the Clank policy state,
   captured at a clean instruction boundary of an uninterrupted run.
   Everything inside is immutable once captured (the shadow map is
   packed at capture and unpacked into a fresh array at resume; the
   checkpoint register file is replaced wholesale on checkpoint, never
   mutated), so one [resume_state] can seed any number of [run] calls
   from any number of domains. *)
type clank_resume = {
  rc_checkpoint : Machine.register_file;
  rc_shadow : Bytes.t; (* packed 2 bits/word, epoch-normalised *)
  rc_tracked : int;
  rc_since_cycles : int;
  rc_since_retired : int;
}

type resume_state = {
  rs_clank : clank_resume option;
  rs_active : int;
  rs_overhead : int;
  rs_reexecuted : int;
  rs_outages : int;
  rs_checkpoints : int;
  rs_skimmed : bool;
  rs_first_skim_active : int option;
  rs_wall : int;  (* wall cycles elapsed from task start to capture *)
  rs_retired : int;  (* instructions retired from task start to capture *)
  rs_next_snapshot : int;
}

let resume_retired rs = rs.rs_retired

(* Fast-forward: the caller has detected that the machine's
   architectural state bit-matches a recorded boundary of a reference
   run whose completion is already known, so the rest of this run is
   fully determined.  [ff_at] holds the reference counters at the
   matched boundary, [ff_final] the reference outcome at halt; the
   outcome of this run is its live counters plus the reference
   deltas. *)
type fast_forward = { ff_at : resume_state; ff_final : outcome }

let run ?(policy = Always_on) ?(engine = Fast)
    ?(max_wall_cycles = 20_000_000_000) ?(snapshot_every = 10_000) ?snapshot
    ?(halt_at_skim = false) ?on_checkpoint ?on_restore ?on_region ?on_step
    ?resume ?keyframe_every ?on_keyframe ?fast_forward ~machine ~supply () =
  (match keyframe_every with
  | Some k when k < 1 -> invalid_arg "Executor.run: keyframe_every"
  | _ -> ());
  let wall_start = Supply.now_cycles supply in
  let retired_start = Machine.instructions_retired machine in
  (* Offsets a resumed run inherits from its captured prefix; zero for a
     run from task entry.  The outcome then reports totals from task
     start, bit-identical to an uninterrupted from-scratch run. *)
  let wall_base, retired_base =
    match resume with
    | Some rs -> (rs.rs_wall, rs.rs_retired)
    | None -> (0, 0)
  in
  let active = ref (match resume with Some r -> r.rs_active | None -> 0) in
  let overhead = ref (match resume with Some r -> r.rs_overhead | None -> 0) in
  let reexecuted =
    ref (match resume with Some r -> r.rs_reexecuted | None -> 0)
  in
  let outage_count =
    ref (match resume with Some r -> r.rs_outages | None -> 0)
  in
  let checkpoint_count =
    ref (match resume with Some r -> r.rs_checkpoints | None -> 0)
  in
  let skimmed = ref (match resume with Some r -> r.rs_skimmed | None -> false) in
  let first_skim_active =
    ref (match resume with Some r -> r.rs_first_skim_active | None -> None)
  in
  let next_snapshot =
    ref (match resume with Some r -> r.rs_next_snapshot | None -> snapshot_every)
  in
  (* Consume coalescing: when the supply can never cut power on its own
     (always-on / scripted with an empty script), per-instruction
     [Supply.consume] calls are pure clock-and-drain arithmetic — so
     they are batched into [pending] and flushed only when something
     reads or changes supply state (a forced cut, an outage, run end).
     Energy accounting is in integer cycles on the supply side, so the
     flush is bit-identical to the per-instruction sequence. *)
  let coalesce = Supply.never_cuts supply in
  let pending = ref 0 in
  let flush_pending () =
    if !pending > 0 then begin
      ignore (Supply.consume supply ~cycles:!pending);
      pending := 0
    end
  in
  let wall_elapsed () =
    wall_base + Supply.now_cycles supply + !pending - wall_start
  in
  let task_retired () =
    retired_base + Machine.instructions_retired machine - retired_start
  in
  let take_snapshot () =
    match snapshot with
    | None -> ()
    | Some hook -> hook ~active_cycles:!active ~wall_cycles:(wall_elapsed ())
  in
  (* Per-region cycle metering for the WCEC soundness oracle: a region
     window is every cycle burned — execution and runtime overhead —
     between consecutive power-fail-safe points (checkpoint committed,
     power death, per-instruction commit under NVP, halt).  Each such
     window must stay below the static per-charge bound. *)
  let region_acc = ref 0 in
  let region_add cycles =
    if on_region <> None then region_acc := !region_acc + cycles
  in
  let region_close () =
    match on_region with
    | Some hook ->
        hook ~cycles:!region_acc;
        region_acc := 0
    | None -> ()
  in
  let spend_overhead cycles =
    overhead := !overhead + cycles;
    region_add cycles;
    if coalesce then pending := !pending + cycles
    else ignore (Supply.consume supply ~cycles)
  in
  (* Bind the policy configuration once; the per-instruction loop used
     to re-match [policy] twice per step. *)
  let clank =
    match policy with
    | Clank cfg ->
        let words = (Wn_mem.Memory.size (Machine.mem machine) + 3) / 4 in
        let st =
          match resume with
          | Some { rs_clank = Some rc; _ } ->
              if Bytes.length rc.rc_shadow <> (words + 3) / 4 then
                invalid_arg "Executor.run: resume shadow map size mismatch";
              {
                checkpoint = rc.rc_checkpoint;
                shadow = unpack_shadow rc.rc_shadow words;
                epoch = 0;
                tracked = rc.rc_tracked;
                since_ckpt_cycles = rc.rc_since_cycles;
                since_ckpt_retired = rc.rc_since_retired;
              }
          | Some { rs_clank = None; _ } ->
              invalid_arg "Executor.run: resume state lacks Clank policy state"
          | None ->
              {
                checkpoint = Machine.capture_registers machine;
                shadow = Array.make words 0;
                epoch = 0;
                tracked = 0;
                since_ckpt_cycles = 0;
                since_ckpt_retired = 0;
              }
        in
        Some (cfg, st)
    | Always_on | Nvp _ ->
        (match resume with
        | Some { rs_clank = Some _; _ } ->
            invalid_arg "Executor.run: resume state carries Clank policy state"
        | _ -> ());
        None
  in
  let capture_resume () =
    {
      rs_clank =
        Option.map
          (fun (_cfg, st) ->
            {
              rc_checkpoint = st.checkpoint;
              rc_shadow = pack_shadow st;
              rc_tracked = st.tracked;
              rc_since_cycles = st.since_ckpt_cycles;
              rc_since_retired = st.since_ckpt_retired;
            })
          clank;
      rs_active = !active;
      rs_overhead = !overhead;
      rs_reexecuted = !reexecuted;
      rs_outages = !outage_count;
      rs_checkpoints = !checkpoint_count;
      rs_skimmed = !skimmed;
      rs_first_skim_active = !first_skim_active;
      rs_wall = wall_elapsed ();
      rs_retired = task_retired ();
      rs_next_snapshot = !next_snapshot;
    }
  in
  let stores = build_store_table (Machine.program machine) in
  let shadow_words st = Array.length st.shadow in
  let do_checkpoint cfg st =
    spend_overhead cfg.checkpoint_cycles;
    st.checkpoint <- Machine.capture_registers machine;
    shadow_clear st;
    st.since_ckpt_cycles <- 0;
    st.since_ckpt_retired <- 0;
    incr checkpoint_count;
    (* The checkpoint is committed: everything up to and including its
       overhead is now safe against power loss. *)
    region_close ();
    match on_checkpoint with
    | Some hook -> hook (Machine.instructions_retired machine)
    | None -> ()
  in
  (* Insert into one tracking plane, checkpointing first on overflow
     (capacity is checked before the insert, as the hardware tests the
     buffer before latching a new entry). *)
  let track cfg st w bit =
    if shadow_bits st w land bit = 0 then begin
      if st.tracked >= cfg.buffer_entries then do_checkpoint cfg st;
      shadow_set st w bit;
      st.tracked <- st.tracked + 1
    end
  in
  (* Watchdog and WAR-violation pre-check: a store about to write a word
     read first in this epoch forces a checkpoint *before* the violating
     write commits.  The store's target address comes from the per-PC
     table and live registers. *)
  let pre_step cfg st =
    if st.since_ckpt_cycles >= cfg.watchdog_period then do_checkpoint cfg st
    else begin
      let pc = Machine.pc machine in
      if pc >= 0 && pc < Array.length stores.st_kind then
        match stores.st_kind.(pc) with
        | 1 ->
            let w =
              word_of_addr (Machine.reg machine stores.st_base.(pc) + stores.st_off.(pc))
            in
            (* An out-of-range word cannot have been read this epoch
               (tracked reads all succeeded, hence were in bounds). *)
            if w >= 0 && w < shadow_words st
               && shadow_bits st w land read_bit <> 0
            then do_checkpoint cfg st
        | 2 ->
            let w =
              word_of_addr
                (Machine.reg machine stores.st_base.(pc)
                + Machine.reg machine stores.st_idx.(pc))
            in
            if w >= 0 && w < shadow_words st
               && shadow_bits st w land read_bit <> 0
            then do_checkpoint cfg st
        | _ -> ()
    end
  in
  let handle_skim_jump () =
    match Machine.take_skim machine with
    | Some target ->
        Machine.set_pc machine target;
        skimmed := true;
        true
    | None -> false
  in
  let handle_outage () =
    (* Power died: this charge's burn window ends here; the restore
       overhead below opens the next charge's window.  (On a coalescing
       supply the only way here is a forced cut, which flushed.) *)
    flush_pending ();
    region_close ();
    incr outage_count;
    ignore (Supply.wait_for_power supply);
    (match clank with
    | None ->
        let restore =
          match policy with Nvp c -> c.nvp_restore_cycles | _ -> 0
        in
        spend_overhead restore;
        (* NVP keeps all state; just honour a pending skim point. *)
        ignore (handle_skim_jump ())
    | Some (cfg, st) ->
        spend_overhead cfg.clank_restore_cycles;
        if handle_skim_jump () then begin
          (* The skim target's code depends only on NVM state, so a
             scrubbed register file is safe; start a fresh epoch
             there. *)
          let pc = Machine.pc machine in
          Machine.scrub_volatile machine;
          Machine.set_pc machine pc;
          st.checkpoint <- Machine.capture_registers machine
        end
        else begin
          (* Roll back: everything since the checkpoint re-executes. *)
          reexecuted := !reexecuted + st.since_ckpt_retired;
          Machine.restore_registers machine st.checkpoint
        end;
        shadow_clear st;
        st.since_ckpt_cycles <- 0;
        st.since_ckpt_retired <- 0);
    (* Restore complete: the machine is in exactly the state execution
       resumes from (skim jump taken, rollback applied).  The hook lets
       a fault-injection oracle audit that state in place. *)
    match on_restore with Some hook -> hook !outage_count | None -> ()
  in
  (* Everything after an instruction executes, engine-independent.  All
     effect arguments are immediates (addresses are -1 for "no such
     access"), so the fast path passes them without allocating. *)
  let post_step ~cycles ~read_addr ~wrote_addr ~wrote_bytes ~was_skm =
    active := !active + cycles;
    region_add cycles;
    if coalesce then pending := !pending + cycles
    else ignore (Supply.consume supply ~cycles);
    (match clank with
    | Some (cfg, st) ->
        st.since_ckpt_cycles <- st.since_ckpt_cycles + cycles;
        st.since_ckpt_retired <- st.since_ckpt_retired + 1;
        if read_addr >= 0 then begin
          let w = word_of_addr read_addr in
          (* Skip only reads dominated by a *full-word* write, which
             re-execution is guaranteed to reproduce. *)
          if shadow_bits st w land write_bit = 0 then track cfg st w read_bit
        end;
        if wrote_addr >= 0 && wrote_bytes = 4 then
          track cfg st (word_of_addr wrote_addr) write_bit
    | None ->
        (* NVP / always-on: every retired instruction commits, so each
           closes its own burn window. *)
        region_close ());
    if was_skm then begin
      if !first_skim_active = None then first_skim_active := Some !active;
      if halt_at_skim then
        (* Model an outage at this very instant: take the skim jump
           and commit the earliest available output. *)
        ignore (handle_skim_jump ())
    end;
    if !active >= !next_snapshot then begin
      take_snapshot ();
      next_snapshot := !next_snapshot + snapshot_every
    end;
    (* Fault injection: an exhausted step budget forces an outage at
       this exact instruction boundary, whichever engine stepped.  The
       budget is cleared so the re-execution after restore runs free. *)
    if Machine.budget_exhausted machine then begin
      Machine.set_step_budget machine None;
      flush_pending ();
      Supply.cut supply
    end
  in
  (* After an instruction (and its post-step accounting) completes:
     first the per-step observation hook, then — at every
     [keyframe_every]'th retired instruction of an uninterrupted run —
     the keyframe hook with a freshly captured resume state.  Keyframes
     are never taken on a halted machine or while power is down (a
     pending forced outage included), so every captured state is a clean
     resumable boundary. *)
  let after_step () =
    (match on_step with Some f -> f () | None -> ());
    match (keyframe_every, on_keyframe) with
    | Some k, Some hook ->
        if
          task_retired () mod k = 0
          && (not (Machine.halted machine))
          && Supply.is_on supply
        then hook (capture_resume ())
    | _ -> ()
  in
  let step_fast_once () =
    Machine.step_fast machine;
    post_step
      ~cycles:(Machine.last_cycles machine)
      ~read_addr:(Machine.last_read_addr machine)
      ~wrote_addr:(Machine.last_wrote_addr machine)
      ~wrote_bytes:(Machine.last_wrote_bytes machine)
      ~was_skm:(Machine.last_was_skm machine)
  in
  (* Block engine: hooks that must observe every instruction boundary —
     the per-step observer, region metering, the fast-forward rejoin
     probe — force the per-step path for the whole run, keeping the
     fault survey and the WCEC soundness oracle exact. *)
  let may_fuse =
    Option.is_none on_step && Option.is_none on_region
    && Option.is_none fast_forward
  in
  (* One guard at block entry, then the whole run in a single call with
     one batched consume and one post-step.  Each conjunct ensures some
     per-instruction check could not have fired at an *interior*
     boundary of the run; anything that would fire exactly at the run's
     final boundary (budget exhaustion, watchdog, keyframe, a scripted
     cut landing on the last cycle) fires identically after the batched
     commit.  Any failed conjunct just falls back to per-instruction
     stepping until the next run entry — bit-identical, merely slower.
     The guard prices a run at its static worst case [c] (a terminating
     branch taken), which can only be conservative; the commit charges
     the [paid] cycles — [c] less a conditional branch's untaken
     saving — exactly as per-step execution would. *)
  let try_block b =
    let n = Machine.block_len b in
    let c = Machine.block_cycles b in
    Machine.budget_covers machine n
    && wall_elapsed () + c <= max_wall_cycles
    && (match snapshot with
       | Some _ -> !active + c < !next_snapshot
       | None -> true)
    && (match (keyframe_every, on_keyframe) with
       | Some k, Some _ -> k - (task_retired () mod k) >= n
       | _ -> true)
    && (match clank with
       | Some (cfg, st) ->
           (* No interior pre-step can trip the watchdog, and the read
              set cannot overflow the buffer mid-run (runs are
              store-free, so WAR pre-checks are vacuous). *)
           st.since_ckpt_cycles + Machine.block_pre_cycles b
           < cfg.watchdog_period
           && st.tracked + Machine.block_loads b <= cfg.buffer_entries
       | None -> true)
    && (coalesce || Supply.assured supply ~cycles:c)
    && begin
         Machine.exec_block machine b;
         let paid = Machine.block_pre_cycles b + Machine.last_cycles machine in
         active := !active + paid;
         if coalesce then pending := !pending + paid
         else
           ignore
             (Supply.consume_run supply
                ~costs:(Machine.block_paid_costs machine b));
         (match clank with
         | Some (cfg, st) ->
             st.since_ckpt_cycles <- st.since_ckpt_cycles + paid;
             st.since_ckpt_retired <- st.since_ckpt_retired + n;
             (* Replay read tracking from the recorded load addresses, in
                order — no store ran in between, so the shadow-map
                transitions equal the per-step ones, and the entry guard
                ruled out an overflow checkpoint. *)
             for i = 0 to Machine.block_loads b - 1 do
               let w = word_of_addr (Machine.block_read_addr machine i) in
               if shadow_bits st w land write_bit = 0 then
                 track cfg st w read_bit
             done
         | None -> ());
         (* Runs latch no skim point, so only the snapshot threshold and
            the budget remain from the per-step tail.  The threshold can
            only be crossed here with no snapshot hook installed (the
            entry guard otherwise kept the whole run below it), so this
            replays exactly the per-boundary counter advance. *)
         if !active >= !next_snapshot then begin
           let costs = Machine.block_paid_costs machine b in
           let a = ref (!active - paid) in
           for i = 0 to n - 1 do
             a := !a + Array.unsafe_get costs i;
             if !a >= !next_snapshot then begin
               take_snapshot ();
               next_snapshot := !next_snapshot + snapshot_every
             end
           done
         end;
         if Machine.budget_exhausted machine then begin
           Machine.set_step_budget machine None;
           flush_pending ();
           Supply.cut supply
         end;
         true
       end
  in
  let rec loop () =
    if Machine.halted machine then `Done true
    else if wall_elapsed () > max_wall_cycles then `Done false
    else if not (Supply.is_on supply) then begin
      handle_outage ();
      loop ()
    end
    else begin
      (match clank with Some (cfg, st) -> pre_step cfg st | None -> ());
      (match engine with
      | Fast -> step_fast_once ()
      | Block ->
          let fused =
            may_fuse
            && (match Machine.block_at machine (Machine.pc machine) with
               | Some b -> try_block b
               | None -> false)
          in
          if not fused then step_fast_once ()
      | Compat ->
          let res = Machine.step machine in
          let read_addr =
            match res.Machine.read with Some a -> a.Machine.addr | None -> -1
          in
          let wrote_addr, wrote_bytes =
            match res.Machine.wrote with
            | Some a -> (a.Machine.addr, a.Machine.bytes)
            | None -> (-1, 0)
          in
          let was_skm =
            match res.Machine.instr with Instr.Skm _ -> true | _ -> false
          in
          post_step ~cycles:res.Machine.cycles ~read_addr ~wrote_addr
            ~wrote_bytes ~was_skm);
      after_step ();
      match fast_forward with
      | None -> loop ()
      | Some probe ->
          (* A skim commit leaves the reference trajectory the probe's
             certificate came from, so matches are no longer expected;
             skipping the probe is always sound (the run just keeps
             stepping) and removes the per-step compare from every
             commit tail. *)
          if !skimmed then loop ()
          else (
            match probe () with Some ff -> `Fast_forward ff | None -> loop ())
    end
  in
  match loop () with
  | `Done completed ->
      flush_pending ();
      region_close ();
      take_snapshot ();
      {
        completed;
        skimmed = !skimmed;
        first_skim_active = !first_skim_active;
        wall_cycles = wall_elapsed ();
        active_cycles = !active;
        overhead_cycles = !overhead;
        reexecuted_instructions = !reexecuted;
        outage_count = !outage_count;
        checkpoint_count = !checkpoint_count;
        retired = task_retired ();
      }
  | `Fast_forward ff ->
      flush_pending ();
      (* The machine is left at the matched state, not at halt, and the
         snapshot hook is not replayed for the skipped tail. *)
      {
        completed = ff.ff_final.completed;
        skimmed = !skimmed || (ff.ff_final.skimmed && not ff.ff_at.rs_skimmed);
        first_skim_active =
          (match !first_skim_active with
          | Some _ as s -> s
          | None -> (
              match
                (ff.ff_final.first_skim_active, ff.ff_at.rs_first_skim_active)
              with
              | Some a, None -> Some (!active + (a - ff.ff_at.rs_active))
              | _ -> None));
        wall_cycles =
          wall_elapsed () + (ff.ff_final.wall_cycles - ff.ff_at.rs_wall);
        active_cycles =
          !active + (ff.ff_final.active_cycles - ff.ff_at.rs_active);
        overhead_cycles =
          !overhead + (ff.ff_final.overhead_cycles - ff.ff_at.rs_overhead);
        reexecuted_instructions =
          !reexecuted
          + (ff.ff_final.reexecuted_instructions - ff.ff_at.rs_reexecuted);
        outage_count =
          !outage_count + (ff.ff_final.outage_count - ff.ff_at.rs_outages);
        checkpoint_count =
          !checkpoint_count
          + (ff.ff_final.checkpoint_count - ff.ff_at.rs_checkpoints);
        retired = task_retired () + (ff.ff_final.retired - ff.ff_at.rs_retired);
      }
