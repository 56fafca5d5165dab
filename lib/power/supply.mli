(** Intermittent power supply: a harvesting trace feeding a capacitor
    that powers the core.

    The supply keeps the global wall clock in CPU cycles at the paper's
    24 MHz.  While the core runs it drains a constant energy per cycle
    (validated constant-per-instruction on an MSP430 in the paper;
    per-cycle makes the 16-cycle iterative multiply proportionally more
    expensive, see DESIGN.md) and simultaneously integrates harvested
    energy.  When the capacitor sags below brown-out the core loses
    power; [wait_for_power] advances the clock until the turn-on
    threshold is reached again. *)

type t

val default_clock_hz : float
(** 24 MHz, the paper's operating frequency. *)

val default_cycle_energy : float
(** 1 nJ per cycle — MSP430-class energy per cycle, calibrated so a
    full 10 µF charge sustains about 15 k cycles (≈ 0.6 ms at 24 MHz),
    the paper's "up to a few milliseconds at a time" regime. *)

val create :
  ?clock_hz:float ->
  ?cycle_energy:float ->
  ?start_full:bool ->
  trace:Trace.t ->
  capacitor:Capacitor.t ->
  unit ->
  t

val always_on : unit -> t
(** A supply that never browns out (for functional testing and for the
    continuously-powered baseline). *)

val default_off_cycles : int
(** Off-period served by [scripted] supplies per forced outage:
    24_000 cycles (one 1 kHz trace tick at 24 MHz). *)

val scripted : ?off_cycles:int -> ?outages:int list -> unit -> t
(** A fault-injection supply: energy-unconstrained like [always_on],
    but it cuts power the moment the clock reaches each cycle in
    [outages] (strictly ascending, all non-negative) — and whenever
    [cut] is called.  After a forced outage, [wait_for_power] serves
    exactly [off_cycles] (default {!default_off_cycles}) and power
    returns.  Raises [Invalid_argument] on a negative [off_cycles] or
    an unsorted/negative script. *)

val cut : t -> unit
(** Force a brown-out right now.  On a capacitor-backed supply this
    empties the capacitor (recharge then follows the trace as for any
    natural outage); on an [always_on]/[scripted] supply it forces the
    off state that [wait_for_power] clears after its off-period.  No-op
    if the supply is already off. *)

val now_cycles : t -> int
(** Wall-clock cycles elapsed, including time spent powered off. *)

val now_s : t -> float

val is_on : t -> bool

val consume : t -> cycles:int -> bool
(** Run the core for [cycles] cycles: advances the clock, drains the
    capacitor, integrates harvest.  Inflow is integrated piecewise
    across trace-tick boundaries, so a multi-cycle instruction that
    spans a burst edge credits each segment at that segment's power.
    Returns [false] if the supply browned out (the core lost power at
    the end of those cycles). *)

val wait_for_power : t -> int
(** Block (advance the clock) until the capacitor recharges to turn-on;
    returns the number of cycles spent off.  An outage that begins
    mid-tick first charges for the remaining fraction of that tick at
    that tick's power, then proceeds tick-aligned — the clock never
    drifts off the trace grid.  Raises [Failure] if the trace cannot
    recharge the capacitor within a 10-minute simulated window (a
    starved supply). *)

val consume_run : t -> costs:int array -> bool
(** Consume a whole fused run, [costs] holding each instruction's
    latency in order.  Observably identical, bit for bit, to calling
    {!consume} once per cost left to right.  On an energy-unconstrained
    supply it collapses to one batched call.  On a capacitor-backed
    supply each longest stretch of costs that ends inside the cached
    trace tick is one call to the capacitor's burst kernel
    ({!Capacitor.burst_run}), which performs each cost's harvest and
    drain with the same float operations in the same order as
    {!consume}; a cost that crosses a tick edge goes through {!consume}
    itself.  Outages are counted per cost, as the call sequence would.
    Returns the power state after the last cost.  Intended to run under
    an {!assured} guard; if power dies mid-run anyway, the remaining
    costs are still consumed (the outage surfaces at the run boundary).
    Allocation-free except at a tick edge. *)

val never_cuts : t -> bool
(** True when this supply can never brown out on its own: energy
    unconstrained with no scripted outages pending.  [cut] can still
    force an outage — callers coalescing {!consume} calls under this
    predicate must flush before cutting.  Monotone: once true it stays
    true until a [cut]. *)

val assured : t -> cycles:int -> bool
(** Conservative guard: is the supply guaranteed to stay on through
    [cycles] more consumed cycles (no scripted cut inside the window,
    and — for a capacitor — usable charge covering the drain with a
    16-cycle margin for float rounding, before counting any harvest
    inflow)?  A [false] answer does not mean power will die, only that
    it cannot be promised; harvest income during the window is ignored,
    which is sound because it only adds.  The capacitor test is
    {!Capacitor.covers}, so the guard allocates nothing. *)

val outages : t -> int
(** Number of brown-outs observed so far. *)

val energy_consumed : t -> float
(** Total joules drained by the core: consumed cycles times the cycle
    energy.  Tracked in integer cycles, so batched multi-instruction
    consumes report exactly what the per-instruction sequence would. *)
