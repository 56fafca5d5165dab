type t = {
  clock_hz : float;
  cycle_energy : float;
  trace : Trace.t;
  capacitor : Capacitor.t;
  infinite : bool;
  per_tick : int; (* simulation cycles per trace tick, hoisted from the
                     per-call float round the seed paid *)
  mutable cycles : int;
  mutable outage_count : int;
  (* Core-drain accounting in integer cycles, not accumulated floats:
     [energy_consumed] is one multiply at read time, so a batched
     multi-instruction consume reports exactly the same energy as the
     per-instruction call sequence (no float summation-order drift). *)
  mutable consumed_cycles : int;
  (* Cached harvest segment: for cycle positions in
     [tick_base, tick_end) the trace delivers [tick_power] watts.
     Within-segment [consume] is then a multiply-add; the piecewise
     integration only runs when an instruction spans a tick boundary. *)
  mutable tick_base : int;
  mutable tick_end : int;
  mutable tick_power : float;
  (* Scripted outages (fault injection): the supply reports a brown-out
     the moment the clock reaches the next scripted cycle, regardless of
     stored energy, and [wait_for_power] restores power after a fixed
     off-period.  [forced_off] is also settable directly via [cut]. *)
  mutable forced_off : bool;
  mutable script : int list; (* ascending absolute cut cycles *)
  off_cycles : int; (* off-period served for a forced outage *)
}

let default_clock_hz = 24e6

let default_cycle_energy = 1.0e-9

let compute_per_tick clock_hz =
  int_of_float (Float.round (clock_hz *. Trace.sample_period_s))

(* Re-anchor the cached segment on the tick containing [t.cycles]. *)
let refresh_tick_cache t =
  let tick = t.cycles / t.per_tick in
  t.tick_base <- tick * t.per_tick;
  t.tick_end <- t.tick_base + t.per_tick;
  t.tick_power <- Trace.power_at_tick t.trace tick

let create ?(clock_hz = default_clock_hz) ?(cycle_energy = default_cycle_energy)
    ?(start_full = true) ~trace ~capacitor () =
  if clock_hz <= 0.0 || cycle_energy < 0.0 then invalid_arg "Supply.create";
  if start_full then Capacitor.set_full capacitor;
  let t =
    {
      clock_hz;
      cycle_energy;
      trace;
      capacitor;
      infinite = false;
      per_tick = compute_per_tick clock_hz;
      cycles = 0;
      outage_count = 0;
      consumed_cycles = 0;
      tick_base = 0;
      tick_end = 0;
      tick_power = 0.0;
      forced_off = false;
      script = [];
      off_cycles = 0;
    }
  in
  refresh_tick_cache t;
  t

let always_on () =
  let trace = Trace.constant ~power:1.0 ~duration_s:1.0 in
  let t =
    {
      clock_hz = default_clock_hz;
      cycle_energy = default_cycle_energy;
      trace;
      capacitor = Capacitor.create ();
      infinite = true;
      per_tick = compute_per_tick default_clock_hz;
      cycles = 0;
      outage_count = 0;
      consumed_cycles = 0;
      tick_base = 0;
      tick_end = 0;
      tick_power = 0.0;
      forced_off = false;
      script = [];
      off_cycles = 0;
    }
  in
  refresh_tick_cache t;
  t

let default_off_cycles = 24_000

let scripted ?(off_cycles = default_off_cycles) ?(outages = []) () =
  if off_cycles < 0 then invalid_arg "Supply.scripted";
  let rec ascending = function
    | a :: (b :: _ as rest) ->
        if a >= b then invalid_arg "Supply.scripted" else ascending rest
    | _ -> ()
  in
  List.iter (fun c -> if c < 0 then invalid_arg "Supply.scripted") outages;
  ascending outages;
  let trace = Trace.constant ~power:1.0 ~duration_s:1.0 in
  let t =
    {
      clock_hz = default_clock_hz;
      cycle_energy = default_cycle_energy;
      trace;
      capacitor = Capacitor.create ();
      infinite = true;
      per_tick = compute_per_tick default_clock_hz;
      cycles = 0;
      outage_count = 0;
      consumed_cycles = 0;
      tick_base = 0;
      tick_end = 0;
      tick_power = 0.0;
      forced_off = false;
      script = outages;
      off_cycles;
    }
  in
  refresh_tick_cache t;
  t

let now_cycles t = t.cycles

let now_s t = float_of_int t.cycles /. t.clock_hz

let is_on t =
  (not t.forced_off) && (t.infinite || Capacitor.is_on t.capacitor)

(* Force a brown-out right now, regardless of stored energy.  On a
   capacitor-backed supply the injection empties the capacitor (the
   physical analogue of yanking the harvester mid-burst); on an infinite
   or scripted supply it sets [forced_off], which [wait_for_power]
   clears after serving [off_cycles]. *)
let cut t =
  if is_on t then begin
    if t.infinite then t.forced_off <- true
    else Capacitor.set_empty t.capacitor;
    t.outage_count <- t.outage_count + 1
  end

(* Harvest inflow over [start, start + cycles) cycles, integrated
   piecewise across trace-tick boundaries: a multi-cycle instruction
   (the 16-cycle MUL) that spans a burst edge must credit each segment
   at that segment's power, not the whole instruction at the starting
   tick's power.  Left-to-right summation, like each call to this
   function always performed. *)
let harvest_spanning t ~start ~finish =
  let per_tick = t.per_tick in
  let pos = ref start in
  let acc = ref 0.0 in
  while !pos < finish do
    let tick = !pos / per_tick in
    let seg_end = min finish ((tick + 1) * per_tick) in
    let seg = seg_end - !pos in
    acc :=
      !acc
      +. Trace.power_at_tick t.trace tick *. (float_of_int seg /. t.clock_hz);
    pos := seg_end
  done;
  !acc

let consume t ~cycles =
  if cycles < 0 then invalid_arg "Supply.consume";
  let start = t.cycles in
  let finish = start + cycles in
  t.cycles <- finish;
  t.consumed_cycles <- t.consumed_cycles + cycles;
  (match t.script with
  | c :: _ when c <= finish ->
      let rec drop = function
        | c :: rest when c <= finish -> drop rest
        | rest -> rest
      in
      t.script <- drop t.script;
      if not t.forced_off then begin
        t.forced_off <- true;
        t.outage_count <- t.outage_count + 1
      end
  | _ -> ());
  if t.infinite then not t.forced_off
  else begin
    let on =
      if start >= t.tick_base && finish <= t.tick_end then
        (* Whole burst inside the cached tick: the capacitor's kernel,
           bit-identical to the one-segment integration (0.0 +. x = x). *)
        Capacitor.burst t.capacitor ~cycles ~power:t.tick_power
          ~clock_hz:t.clock_hz ~cycle_energy:t.cycle_energy
      else begin
        let inflow = harvest_spanning t ~start ~finish in
        refresh_tick_cache t;
        Capacitor.harvest t.capacitor inflow;
        Capacitor.drain t.capacitor (float_of_int cycles *. t.cycle_energy);
        Capacitor.is_on t.capacitor
      end
    in
    if not on then t.outage_count <- t.outage_count + 1;
    on
  end

let wait_for_power t =
  if is_on t then 0
  else if t.forced_off then begin
    (* A forced (scripted/injected) outage on an energy-unconstrained
       supply: serve the fixed off-period, then power returns.  The
       clock advance keeps downstream time accounting honest without
       modelling any recharge physics. *)
    t.cycles <- t.cycles + t.off_cycles;
    t.forced_off <- false;
    if not t.infinite then refresh_tick_cache t;
    t.off_cycles
  end
  else begin
    let start = t.cycles in
    let limit = t.cycles + int_of_float (600.0 *. t.clock_hz) in
    let rec charge () =
      if is_on t then begin
        refresh_tick_cache t;
        t.cycles - start
      end
      else if t.cycles > limit then
        failwith "Supply.wait_for_power: trace cannot recharge the capacitor"
      else begin
        (* Integrate only to the next tick boundary: an outage that
           begins mid-tick charges for the remaining fraction of that
           tick at that tick's power, keeping the clock aligned to the
           trace instead of drifting by the mid-tick offset. *)
        let tick = t.cycles / t.per_tick in
        let boundary = (tick + 1) * t.per_tick in
        let seg = boundary - t.cycles in
        Capacitor.harvest t.capacitor
          (Trace.power_at_tick t.trace tick
          *. (float_of_int seg /. t.clock_hz));
        t.cycles <- boundary;
        charge ()
      end
    in
    charge ()
  end

let outages t = t.outage_count

let energy_consumed t = float_of_int t.consumed_cycles *. t.cycle_energy

let never_cuts t = t.infinite && t.script = []

(* Margin covering the float rounding gap between one batched drain and
   the per-instruction drain sequence the guard stands in for: the
   sequence's total rounding error is at most one ulp per instruction,
   so sixteen whole cycles of headroom dwarfs it for any real block. *)
let assured_margin_cycles = 16

let assured t ~cycles =
  (not t.forced_off)
  && (match t.script with [] -> true | c :: _ -> c > t.cycles + cycles)
  && (t.infinite
     || Capacitor.covers t.capacitor ~cycles:(cycles + assured_margin_cycles)
          ~cycle_energy:t.cycle_energy)

let consume_run t ~costs =
  if t.infinite then begin
    (* Energy-unconstrained: one batched call is observably identical to
       the per-cost sequence — the clock advance and (integer) drain
       accounting are additive, and the script drop/forced-off latch
       depends only on the final clock position. *)
    let total = ref 0 in
    for i = 0 to Array.length costs - 1 do
      total := !total + Array.unsafe_get costs i
    done;
    consume t ~cycles:!total
  end
  else begin
    (* Capacitor-backed (never scripted): each maximal stretch of costs
       that ends inside the cached tick is one kernel call, which runs
       the per-cost harvest/drain sequence [consume] would; a cost that
       crosses the tick edge goes through [consume] itself. *)
    let n = Array.length costs in
    let on = ref true in
    let i = ref 0 in
    while !i < n do
      let start = t.cycles in
      let j = ref !i in
      let finish = ref start in
      if start >= t.tick_base then
        while
          !j < n
          &&
          let c = Array.unsafe_get costs !j in
          c >= 0 && !finish + c <= t.tick_end
        do
          finish := !finish + Array.unsafe_get costs !j;
          incr j
        done;
      if !j = !i then begin
        on := consume t ~cycles:(Array.unsafe_get costs !i);
        incr i
      end
      else begin
        t.cycles <- !finish;
        t.consumed_cycles <- t.consumed_cycles + (!finish - start);
        t.outage_count <-
          t.outage_count
          + Capacitor.burst_run t.capacitor costs !i !j ~power:t.tick_power
              ~clock_hz:t.clock_hz ~cycle_energy:t.cycle_energy;
        on := Capacitor.is_on t.capacitor;
        i := !j
      end
    done;
    !on
  end
