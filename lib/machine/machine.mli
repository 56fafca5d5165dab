(** Cycle-accurate WN-32 core.

    Models the paper's target: a Cortex M0+-class 2-stage in-order core
    at a 32-bit datapath with no caches or branch prediction, an
    iterative multiplier (16 cycles full precision, [bits] cycles for a
    [MUL_ASP<bits>] stage), the subword-vector ALU of Figure 8, an
    optional multiply memoization table with zero-skipping, and the
    non-volatile SKM register that implements skim points.

    The machine executes one instruction per [step] and reports its
    latency plus the memory effects the intermittency runtimes need
    (Clank tracks read/write sets for idempotency violations). *)

open Wn_isa

type config = {
  memo_entries : int option;  (** [Some n]: enable an n-entry memo table *)
  zero_skip : bool;  (** 1-cycle result when a multiply operand is zero *)
}

val default_config : config
(** No memoization, no zero skipping — the paper's baseline core. *)

type t

val create :
  ?config:config -> program:int Instr.t array -> mem:Wn_mem.Memory.t -> unit -> t
(** The program is immutable instruction memory (Harvard style; the
    data memory [mem] holds only data).  The PC starts at 0. *)

val program : t -> int Instr.t array
val mem : t -> Wn_mem.Memory.t

val pc : t -> int
val set_pc : t -> int -> unit

val reg : t -> Reg.t -> int
(** Register contents as an unsigned 32-bit pattern. *)

val set_reg : t -> Reg.t -> int -> unit

val flags : t -> Cond.flags

val halted : t -> bool

val skim_target : t -> int option
(** Contents of the non-volatile SKM register, set by the [Skm]
    instruction and surviving power outages. *)

val take_skim : t -> int option
(** Read and clear the SKM register (done once on restore). *)

val clear_skim : t -> unit

val reset_for_new_task : t -> unit
(** Prepare the core for the next input sample: PC back to 0, halt
    latch and SKM register cleared, registers scrubbed.  Statistics and
    the memoization table persist across tasks. *)

type access = { addr : int; bytes : int }

type step_result = {
  instr : int Instr.t;
  cycles : int;  (** actual latency, after memo/zero-skip shortcuts *)
  read : access option;
  wrote : access option;
  memo_hit : bool;
  zero_skipped : bool;
}

val step : t -> step_result
(** Execute the instruction at the PC.  Raises [Failure] if the machine
    is already halted or the PC is outside the program.

    Compatibility wrapper: runs {!step_fast} and reifies the scratch
    fields into a [step_result] record (one record plus up to two
    [access] allocations per call). *)

(** {2 Allocation-free fast path}

    [step_fast] executes through a dispatch table predecoded once at
    {!create} (one closure per PC, capturing only operand data) and
    reports the instruction's effects in scratch fields on the machine
    instead of a [step_result].  Observable behaviour — register file,
    flags, memory, PC, SKM latch, statistics, memo-table contents and
    counters — is bit-identical to {!step}; the per-instruction cost is
    an array load, an indirect call and integer field writes, with no
    heap allocation.

    The scratch accessors below are valid until the next [step_fast] /
    [step] call.  Addresses are [-1] when the instruction made no such
    access; byte counts are meaningful only when the address is
    non-negative. *)

val step_fast : t -> unit
(** Same failure conditions as {!step}. *)

val last_pc : t -> int
(** PC of the most recently executed instruction. *)

val last_cycles : t -> int
(** Latency actually paid, after memo/zero-skip shortcuts. *)

val worst_case_cycles : 'lbl Instr.t -> int
(** Static latency ceiling of one instruction: {!last_cycles} never
    exceeds it under either engine (memoization and zero-skipping only
    shorten multiplies, a taken/untaken branch never exceeds the taken
    cost).  This is the per-instruction cost the {!Wn_analysis} WCEC
    verifier sums, re-exported here to pin the two models together. *)

val last_read_addr : t -> int
val last_read_bytes : t -> int
val last_wrote_addr : t -> int
val last_wrote_bytes : t -> int
val last_memo_hit : t -> bool
val last_zero_skipped : t -> bool

val last_was_skm : t -> bool
(** Whether the last instruction was [Skm] (latched a skim target). *)

(** {2 Step budget — fault-injection interrupt point}

    A budget of [Some n] counts down by one per retired instruction and
    holds at zero; {!budget_exhausted} then reads true until the budget
    is reset.  Both the fast path and the reference interpreter
    decrement it, so an injection point composes with either engine at
    the cost of one integer compare per step (no allocation, preserving
    the fast path's zero-allocation guarantee).  [None] (the default)
    means unlimited. *)

val set_step_budget : t -> int option -> unit
(** Raises [Invalid_argument] on [Some n] with [n < 0]. *)

val step_budget : t -> int option
(** Remaining budget, or [None] if unlimited. *)

val budget_exhausted : t -> bool
(** True iff a budget was set and has reached zero. *)

(** {2 Block-compiled execution — fused superinstructions}

    The machine lazily partitions its predecoded program into maximal
    fusible runs ({!Wn_analysis.Fuse.plan}: no store, no [Skm], no
    memoizable multiply, statically known latency, optionally ending in
    the basic block's terminating [B]) and compiles each into a
    {!fused} superinstruction: one bare closure per instruction carrying
    only the architectural effect, with the per-step bookkeeping —
    scratch resets, PC advance, retired/cycle statistics, budget
    decrement — precomputed and applied once per run by {!exec_block}.
    A terminating branch sets the exit pc itself and the run is charged
    the latency it actually paid, taken or fall-through.  Executing a
    run is bit-identical to the same number of {!step_fast} calls,
    including the [last_*] scratch left at the boundary, and allocates
    nothing.

    Runs never contain a store or a skim latch, so a power failure at
    the run boundary tears nothing a mid-run failure wouldn't; the
    per-instruction effects an intermittency runtime must still observe
    are exposed statically ({!block_costs}) or replayed from scratch
    ({!block_read_addr}: the effective address of each load, in order,
    valid until the next [exec_block]). *)

type fused

val block_at : t -> int -> fused option
(** The fused run starting at exactly this pc, if any.  Builds the
    block table on first call (one CFG pass); later calls are an array
    read.  Runs start only at pcs the partition chose, so a mid-run pc
    (e.g. a checkpoint restore target) answers [None] — per-step
    execution then reaches the next run start naturally. *)

val block_len : fused -> int
val block_first : fused -> int

val block_cycles : fused -> int
(** Worst-case latency of the run — the sum of {!worst_case_cycles}
    over its pc range.  Exact for a straight-line run (fusible
    instructions have static latency); for a run ending in a
    conditional branch it prices the branch taken, so the fall-through
    exit pays one cycle less.  This is the run's worst-case energy in
    cycles, the quantity the executor's entry guard prices against the
    capacitor. *)

val block_pre_cycles : fused -> int
(** [block_cycles] minus the last instruction's latency: the watchdog
    slack needed so no interior boundary can trip a Clank checkpoint. *)

val block_costs : fused -> int array
(** Worst-case per-instruction latency, in order.  Shared, do not
    mutate. *)

val block_paid_costs : t -> fused -> int array
(** Per-instruction latency the most recent {!exec_block} of this run
    actually paid: {!block_costs}, or the fall-through variant when the
    run's conditional branch was not taken.  The run's paid total is
    [block_pre_cycles b + last_cycles t].  Valid until the next
    [step_fast]/[exec_block]; shared, do not mutate. *)

val block_loads : fused -> int
val block_wn : fused -> int

val block_read_addr : t -> int -> int
(** Effective address of the [i]'th load (0-based, program order) of
    the most recently {!exec_block}-executed run. *)

val budget_covers : t -> int -> bool
(** Whether the step budget is unlimited or at least [n]:
    allocation-free equivalent of matching on {!step_budget}. *)

val exec_block : t -> fused -> unit
(** Execute the whole run in one call.  The caller must ensure the
    machine is not halted, the PC equals [block_first], and
    [budget_covers] the run length; {!step_block} and the executor's
    block engine do. *)

val step_block : t -> unit
(** {!exec_block} when a fused run starts at the PC and the budget
    covers it, {!step_fast} otherwise.  Same failure conditions as
    {!step_fast}. *)

val step_reference : t -> step_result
(** The original direct interpreter over [int Instr.t], kept as the
    executable specification of the ISA.  Semantically interchangeable
    with {!step}; the differential test suite runs both implementations
    in lockstep to prove the predecoded table faithful.  Not intended
    for production use. *)

(** {2 Whole-state snapshot — keyframe support}

    A {!snapshot} is an opaque, immutable capture of the machine's full
    mutable state: registers, flags, PC, halt latch, SKM register,
    retired/cycle statistics, the step budget, the [last_*] effect
    scratch, data memory (with its access counters) and the memo table
    (contents and counters).  The program and the predecoded dispatch
    table are immutable and shared, so capture cost is two array copies
    plus the memory image.

    Memory is captured as a [Memory.image]: by default a *delta* that
    structurally shares pages unwritten since this machine's previous
    snapshot, making a dense keyframe train O(dirty pages) per frame in
    time and space; [~full:true] copies every page.  Both forms are
    complete — restore never consults other snapshots.

    [restore] writes a snapshot into a machine built from the same
    program and configuration — the same machine, or a fresh
    {!create}d one — in place, so the target's predecode table (and the
    memo table its closures capture) stays valid.  The invariant:
    restoring and re-stepping is bit-exact with the original run under
    both {!step_fast} and {!step_reference}.  Snapshots are never
    mutated after capture and can be shared read-only across domains;
    each [restore] deep-copies into the target. *)

type snapshot

val snapshot : ?full:bool -> t -> snapshot
(** [full] (default [false]) forces an isolated copy of every memory
    page instead of the page-sharing delta capture. *)

val restore : t -> snapshot -> unit
(** Raises [Invalid_argument] if the target machine's program length,
    zero-skip setting, memo configuration or memory size does not match
    the snapshot's origin. *)

val snapshot_retired : snapshot -> int
(** Retired-instruction count at capture (keyframe placement). *)

val snapshot_pc : snapshot -> int
(** Program counter at capture (rejoin-candidate indexing). *)

val matches_state : t -> snapshot -> bool
(** True iff the machine's architectural state — PC, registers, flags,
    halt and skim latches, step budget, memo slot contents, full memory
    image — bit-matches the snapshot's.  Statistics counters (retired
    instructions, cycles, memory access counts, memo hit rates) and the
    last-effect scratch fields are ignored: they record the past, while
    the compared state alone determines all future execution.  A
    configuration mismatch (program length, zero-skip, memo presence or
    size) compares as unequal rather than raising. *)

(** {2 State capture — checkpointing and volatility} *)

type register_file

val capture_registers : t -> register_file
(** Registers, flags and PC — what a Clank checkpoint saves to NVM. *)

val restore_registers : t -> register_file -> unit

val scrub_volatile : t -> unit
(** Model a power loss on a volatile core: registers and flags are
    cleared, PC reset to 0.  The SKM register, data memory (FRAM) and
    halt latch survive. *)

(** {2 Statistics} *)

val instructions_retired : t -> int
val wn_instructions : t -> int
(** Dynamic count of WN-extension instructions (Table I's "Insn %"). *)

val cycles_executed : t -> int
(** Active cycles spent executing (excludes powered-off time). *)

val memo : t -> Memo.t option

val reset_stats : t -> unit
