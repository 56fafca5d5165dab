(* Tests for wn.power: traces, the capacitor and the supply. *)

open Wn_power

let test_trace_basics () =
  let t = Trace.constant ~power:1e-3 ~duration_s:0.1 in
  Alcotest.(check int) "100 ticks" 100 (Trace.length t);
  Alcotest.(check (float 1e-9)) "duration" 0.1 (Trace.duration_s t);
  Alcotest.(check (float 1e-9)) "sample" 1e-3 (Trace.power_at_tick t 5);
  Alcotest.(check (float 1e-9)) "wraps" 1e-3 (Trace.power_at_tick t 105);
  Alcotest.(check (float 1e-9)) "mean" 1e-3 (Trace.mean_power t);
  Alcotest.(check (float 1e-9)) "duty" 1.0 (Trace.duty_cycle t)

let test_trace_square () =
  let t = Trace.square ~on_ms:2 ~off_ms:8 ~power:1e-3 ~duration_s:0.1 in
  Alcotest.(check (float 1e-9)) "on" 1e-3 (Trace.power_at_tick t 1);
  Alcotest.(check (float 1e-9)) "off" 0.0 (Trace.power_at_tick t 5);
  Alcotest.(check (float 1e-6)) "duty 20%" 0.2 (Trace.duty_cycle t)

let test_trace_rf_burst () =
  let t = Trace.rf_burst ~seed:1 ~duration_s:10.0 () in
  let duty = Trace.duty_cycle t in
  if duty < 0.01 || duty > 0.4 then
    Alcotest.failf "implausible RF duty cycle %.3f" duty;
  (* deterministic for a seed *)
  let t' = Trace.rf_burst ~seed:1 ~duration_s:10.0 () in
  Alcotest.(check (float 0.0)) "deterministic" (Trace.mean_power t)
    (Trace.mean_power t');
  let t2 = Trace.rf_burst ~seed:2 ~duration_s:10.0 () in
  if Trace.mean_power t = Trace.mean_power t2 then
    Alcotest.fail "different seeds produced identical traces"

let test_paper_suite () =
  let traces = Trace.paper_suite ~seed:9 ~duration_s:2.0 () in
  Alcotest.(check int) "nine traces" 9 (List.length traces);
  List.iter
    (fun t -> if Trace.mean_power t <= 0.0 then Alcotest.fail "dead trace")
    traces

let test_capacitor_hysteresis () =
  let c = Capacitor.create () in
  Alcotest.(check bool) "starts on" true (Capacitor.is_on c);
  Alcotest.(check (float 1e-6)) "starts at v_max" 2.5 (Capacitor.voltage c);
  (* Drain just past brown-out. *)
  Capacitor.drain c (Capacitor.usable_energy c +. 1e-9);
  Alcotest.(check bool) "browned out" false (Capacitor.is_on c);
  (* A little harvest is not enough: hysteresis waits for v_on. *)
  Capacitor.harvest c 1e-7;
  Alcotest.(check bool) "still off below v_on" false (Capacitor.is_on c);
  Capacitor.harvest c 1.0;
  Alcotest.(check bool) "back on" true (Capacitor.is_on c);
  Alcotest.(check (float 1e-6)) "clamped at v_max" 2.5 (Capacitor.voltage c)

let test_capacitor_energy () =
  let c = Capacitor.create () in
  (* ½·10µF·(2.5² − 1.8²) ≈ 15.05 µJ of usable charge. *)
  Alcotest.(check (float 1e-7)) "usable energy" 1.505e-5 (Capacitor.usable_energy c);
  Alcotest.(check (float 1e-7)) "burst budget" 1.505e-5 (Capacitor.burst_budget c);
  Capacitor.set_empty c;
  Alcotest.(check (float 1e-9)) "empty has none" 0.0 (Capacitor.usable_energy c);
  Capacitor.set_full c;
  Alcotest.(check bool) "full is on" true (Capacitor.is_on c);
  Alcotest.check_raises "negative drain" (Invalid_argument "Capacitor.drain")
    (fun () -> Capacitor.drain c (-1.0))

let test_capacitor_bad_config () =
  Alcotest.check_raises "v_off above v_on" (Invalid_argument "Capacitor.create")
    (fun () -> ignore (Capacitor.create ~v_on:1.0 ~v_off:2.0 ()))

(* Property: under any interleaving of harvest and drain, the stored
   energy clamps at full charge, and the on/off latch obeys the
   hysteresis band — it never reads on below V_off, turns on only at or
   above V_on, and turns off only below V_off. *)
let test_capacitor_invariants_random () =
  let rng = Wn_util.Rng.create 42 in
  let c = Capacitor.create () in
  let full = Capacitor.energy c in
  let eps = 1e-12 in
  for step = 1 to 20_000 do
    let was_on = Capacitor.is_on c in
    let amount = Wn_util.Rng.float rng 4e-6 in
    if Wn_util.Rng.bool rng then Capacitor.harvest c amount
    else Capacitor.drain c amount;
    let v = Capacitor.voltage c in
    if Capacitor.energy c > full +. eps then
      Alcotest.failf "step %d: stored energy above full charge" step;
    if Capacitor.is_on c && v < 1.8 -. 1e-9 then
      Alcotest.failf "step %d: on at %.4f V, below V_off" step v;
    if (not was_on) && Capacitor.is_on c && v < 2.3 -. 1e-9 then
      Alcotest.failf "step %d: turned on at %.4f V, below V_on" step v;
    if was_on && (not (Capacitor.is_on c)) && v >= 1.8 +. 1e-9 then
      Alcotest.failf "step %d: turned off at %.4f V, above V_off" step v
  done

(* The same hysteresis property driven through the supply's tick-cached
   consume / wait_for_power paths: whenever [wait_for_power] reports
   power back, the capacitor must actually have reached V_on (not just
   V_off), and consume's verdict must agree with the capacitor latch. *)
let test_supply_hysteresis_under_tick_cache () =
  let rng = Wn_util.Rng.create 7 in
  let trace = Trace.square ~on_ms:3 ~off_ms:7 ~power:2.5e-3 ~duration_s:1.0 in
  let cap = Capacitor.create () in
  let supply = Supply.create ~trace ~capacitor:cap () in
  for step = 1 to 5_000 do
    (* Cycle bursts from 1 to ~3000 exercise both the within-tick
       multiply-add path and the piecewise tick-spanning path. *)
    let on = Supply.consume supply ~cycles:(1 + Wn_util.Rng.int rng 3_000) in
    if on <> Capacitor.is_on cap then
      Alcotest.failf "step %d: consume verdict disagrees with the latch" step;
    if on && Capacitor.voltage cap < 1.8 -. 1e-9 then
      Alcotest.failf "step %d: on below V_off" step;
    if not on then begin
      ignore (Supply.wait_for_power supply);
      if not (Supply.is_on supply) then
        Alcotest.failf "step %d: wait_for_power returned while off" step;
      if Capacitor.voltage cap < 2.3 -. 1e-9 then
        Alcotest.failf "step %d: wait_for_power turned on at %.4f V, below V_on"
          step (Capacitor.voltage cap)
    end
  done

let test_supply_accounting () =
  let s = Supply.always_on () in
  Alcotest.(check bool) "on" true (Supply.is_on s);
  ignore (Supply.consume s ~cycles:1000);
  Alcotest.(check int) "clock advances" 1000 (Supply.now_cycles s);
  Alcotest.(check (float 1e-12)) "energy accounted"
    (1000.0 *. Supply.default_cycle_energy)
    (Supply.energy_consumed s);
  Alcotest.(check (float 1e-9)) "seconds" (1000.0 /. 24e6) (Supply.now_s s)

let test_supply_outage_and_recovery () =
  (* A square source: the capacitor must brown out while computing and
     recover during a burst. *)
  let trace = Trace.square ~on_ms:5 ~off_ms:20 ~power:2e-3 ~duration_s:1.0 in
  let supply = Supply.create ~trace ~capacitor:(Capacitor.create ()) () in
  (* Full charge sustains ~30k cycles at 0.5 nJ/cycle. *)
  let rec drain_until_out n =
    if n > 1_000_000 then Alcotest.fail "never browned out"
    else if Supply.consume supply ~cycles:100 then drain_until_out (n + 1)
  in
  drain_until_out 0;
  Alcotest.(check bool) "off after drain" false (Supply.is_on supply);
  Alcotest.(check int) "one outage" 1 (Supply.outages supply);
  let before = Supply.now_cycles supply in
  let waited = Supply.wait_for_power supply in
  Alcotest.(check bool) "recovered" true (Supply.is_on supply);
  Alcotest.(check int) "clock advanced by the wait" (before + waited)
    (Supply.now_cycles supply);
  if waited <= 0 then Alcotest.fail "wait took no time"

let test_supply_starved () =
  let trace = Trace.constant ~power:1e-12 ~duration_s:0.5 in
  let supply = Supply.create ~trace ~capacitor:(Capacitor.create ()) () in
  let rec drain () = if Supply.consume supply ~cycles:1000 then drain () in
  drain ();
  match Supply.wait_for_power supply with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "starved supply should fail"

let test_supply_piecewise_harvest () =
  (* Regression: a multi-cycle instruction straddling a trace edge must
     credit each tick segment at that segment's power, not the whole
     instruction at the starting tick's power.  A 1 kHz trace at 24 MHz
     puts the edge of a 1 ms on / 1 ms off square at cycle 24_000. *)
  let trace = Trace.square ~on_ms:1 ~off_ms:1 ~power:2e-3 ~duration_s:0.1 in
  let cap = Capacitor.create () in
  (* A tiny cycle energy keeps the capacitor strictly between empty and
     the regulator clamp for the whole test, so stored energy is an
     exact linear function of harvest and drain. *)
  let supply = Supply.create ~cycle_energy:1e-10 ~trace ~capacitor:cap () in
  (* Advance to 10 cycles before the on->off edge, inside tick 0. *)
  ignore (Supply.consume supply ~cycles:23_990);
  Alcotest.(check int) "at edge - 10" 23_990 (Supply.now_cycles supply);
  let e0 = Capacitor.energy cap in
  (* A 20-cycle instruction straddling the edge: only its first 10
     cycles see power, so it harvests 2 mW x 10 cycles, not 2 mW x 20
     (the pre-fix behaviour). *)
  ignore (Supply.consume supply ~cycles:20);
  Alcotest.(check (float 1e-12)) "piecewise credit at the edge"
    (e0 +. (2e-3 *. 10.0 /. 24e6) -. (20.0 *. 1e-10))
    (Capacitor.energy cap);
  (* Entirely inside the off tick: no inflow at all. *)
  let e1 = Capacitor.energy cap in
  ignore (Supply.consume supply ~cycles:100);
  Alcotest.(check (float 1e-12)) "no inflow off-tick"
    (e1 -. (100.0 *. 1e-10))
    (Capacitor.energy cap);
  (* Spanning a whole off tick into the next burst: only the 110 cycles
     that land in the on tick harvest. *)
  let e2 = Capacitor.energy cap in
  ignore (Supply.consume supply ~cycles:24_000);
  Alcotest.(check (float 1e-12)) "multi-tick span"
    (e2 +. (2e-3 *. 110.0 /. 24e6) -. (24_000.0 *. 1e-10))
    (Capacitor.energy cap)

let test_wait_for_power_mid_tick () =
  (* Regression: an outage beginning mid-tick must first credit the
     remainder of that tick at that tick's power, then proceed whole
     ticks on the trace grid.  The old code charged full-length ticks
     starting at the outage point, over-crediting the first one and
     drifting the clock off the 1 ms grid for good. *)
  let trace = Trace.square ~on_ms:1 ~off_ms:1 ~power:2e-3 ~duration_s:0.1 in
  let cap = Capacitor.create () in
  Capacitor.set_empty cap;
  let supply = Supply.create ~start_full:false ~trace ~capacitor:cap () in
  (* 10k cycles into tick 0 (24k cycles per tick): off mid-tick. *)
  ignore (Supply.consume supply ~cycles:10_000);
  Alcotest.(check bool) "off mid-tick" false (Supply.is_on supply);
  let e0 = Capacitor.energy cap in
  let waited = Supply.wait_for_power supply in
  Alcotest.(check bool) "recovered" true (Supply.is_on supply);
  (* The clock comes back on the trace grid: 14k cycles close tick 0,
     then whole 24k-cycle ticks. *)
  Alcotest.(check int) "tick-aligned resume" 0
    (Supply.now_cycles supply mod 24_000);
  if waited < 14_000 then Alcotest.failf "waited only %d cycles" waited;
  Alcotest.(check int) "whole ticks after the partial one" 0
    ((waited - 14_000) mod 24_000);
  (* Exact energy balance: the 14k-cycle remainder of tick 0 at tick
     0's power, then each full tick at its own power. *)
  let n_full = (waited - 14_000) / 24_000 in
  let expect = ref (e0 +. (2e-3 *. 14_000.0 /. 24e6)) in
  for k = 1 to n_full do
    expect := !expect +. (Trace.power_at_tick trace k *. 24_000.0 /. 24e6)
  done;
  Alcotest.(check (float 1e-12)) "mid-tick partial credit" !expect
    (Capacitor.energy cap)

let test_supply_scripted () =
  let s = Supply.scripted ~off_cycles:1_000 ~outages:[ 500; 2_000 ] () in
  Alcotest.(check bool) "on at start" true (Supply.is_on s);
  Alcotest.(check bool) "runs to 499" true (Supply.consume s ~cycles:499);
  Alcotest.(check bool) "cut at 500" false (Supply.consume s ~cycles:1);
  Alcotest.(check int) "one outage" 1 (Supply.outages s);
  Alcotest.(check int) "off period is exact" 1_000 (Supply.wait_for_power s);
  Alcotest.(check bool) "back on" true (Supply.is_on s);
  Alcotest.(check int) "clock accounts the off time" 1_500 (Supply.now_cycles s);
  (* The second scripted cut fires the moment the clock passes it. *)
  Alcotest.(check bool) "cut at 2000" false (Supply.consume s ~cycles:600);
  ignore (Supply.wait_for_power s);
  (* An explicit cut behaves like a scripted one. *)
  Supply.cut s;
  Alcotest.(check bool) "manual cut" false (Supply.is_on s);
  Alcotest.(check int) "three outages" 3 (Supply.outages s);
  Supply.cut s;
  Alcotest.(check int) "cut while off is a no-op" 3 (Supply.outages s);
  ignore (Supply.wait_for_power s);
  Alcotest.(check bool) "recovers" true (Supply.is_on s);
  Alcotest.check_raises "unsorted script" (Invalid_argument "Supply.scripted")
    (fun () -> ignore (Supply.scripted ~outages:[ 10; 5 ] ()))

let test_supply_cut_capacitor_backed () =
  let trace = Trace.square ~on_ms:5 ~off_ms:5 ~power:2e-3 ~duration_s:1.0 in
  let cap = Capacitor.create () in
  let s = Supply.create ~trace ~capacitor:cap () in
  Alcotest.(check bool) "on" true (Supply.is_on s);
  Supply.cut s;
  Alcotest.(check bool) "off after cut" false (Supply.is_on s);
  Alcotest.(check int) "outage counted" 1 (Supply.outages s);
  ignore (Supply.wait_for_power s);
  Alcotest.(check bool) "recharges on the trace" true (Supply.is_on s);
  (* Recharge honoured hysteresis: back above V_on, not just V_off. *)
  if Capacitor.voltage cap < 2.3 -. 1e-9 then
    Alcotest.fail "recovered below V_on"

let test_burst_length_calibration () =
  (* The paper's regime: a full charge lasts of the order of a
     millisecond at 24 MHz (tens of thousands of cycles). *)
  let trace = Trace.constant ~power:0.0 ~duration_s:0.1 in
  let supply = Supply.create ~trace ~capacitor:(Capacitor.create ()) () in
  let cycles = ref 0 in
  while Supply.consume supply ~cycles:100 do
    cycles := !cycles + 100
  done;
  if !cycles < 10_000 || !cycles > 100_000 then
    Alcotest.failf "burst of %d cycles is outside the paper's regime" !cycles

(* ---------------- bit-exactness against the sqrt-based model ---------------- *)

(* A test-local copy of the original capacitor (latch decided by
   comparing [sqrt (2s/C)] against the thresholds) and of the original
   capacitor-backed supply, whose [consume_run] is one [consume] per
   cost.  The production path must match it bit for bit. *)
module Ref = struct
  type cap = {
    capacitance : float;
    v_on : float;
    v_off : float;
    v_max : float;
    mutable stored : float;
    mutable on : bool;
  }

  let energy_at c v = 0.5 *. c *. v *. v

  let create_cap ~capacitance =
    let v_on = 2.3 and v_off = 1.8 and v_max = 2.5 in
    {
      capacitance;
      v_on;
      v_off;
      v_max;
      stored = energy_at capacitance v_max;
      on = true;
    }

  let voltage c = sqrt (2.0 *. c.stored /. c.capacitance)

  let update_state c =
    let v = voltage c in
    if c.on && v < c.v_off then c.on <- false
    else if (not c.on) && v >= c.v_on then c.on <- true

  let drain c joules =
    c.stored <- Float.max 0.0 (c.stored -. joules);
    update_state c

  let harvest c joules =
    c.stored <- Float.min (energy_at c.capacitance c.v_max) (c.stored +. joules);
    update_state c

  type supply = {
    clock_hz : float;
    cycle_energy : float;
    trace : Trace.t;
    cap : cap;
    per_tick : int;
    mutable cycles : int;
    mutable outages : int;
    mutable consumed : int;
    mutable tick_base : int;
    mutable tick_end : int;
    mutable tick_power : float;
  }

  let refresh s =
    let tick = s.cycles / s.per_tick in
    s.tick_base <- tick * s.per_tick;
    s.tick_end <- s.tick_base + s.per_tick;
    s.tick_power <- Trace.power_at_tick s.trace tick

  let create ~clock_hz ~cycle_energy ~trace ~capacitance =
    let s =
      {
        clock_hz;
        cycle_energy;
        trace;
        cap = create_cap ~capacitance;
        per_tick =
          int_of_float (Float.round (clock_hz *. Trace.sample_period_s));
        cycles = 0;
        outages = 0;
        consumed = 0;
        tick_base = 0;
        tick_end = 0;
        tick_power = 0.0;
      }
    in
    refresh s;
    s

  let harvest_spanning s ~start ~finish =
    let pos = ref start and acc = ref 0.0 in
    while !pos < finish do
      let tick = !pos / s.per_tick in
      let seg_end = min finish ((tick + 1) * s.per_tick) in
      acc :=
        !acc
        +. Trace.power_at_tick s.trace tick
           *. (float_of_int (seg_end - !pos) /. s.clock_hz);
      pos := seg_end
    done;
    !acc

  let consume s ~cycles =
    let start = s.cycles in
    let finish = start + cycles in
    s.cycles <- finish;
    let joules = float_of_int cycles *. s.cycle_energy in
    s.consumed <- s.consumed + cycles;
    let inflow =
      if start >= s.tick_base && finish <= s.tick_end then
        s.tick_power *. (float_of_int cycles /. s.clock_hz)
      else begin
        let v = harvest_spanning s ~start ~finish in
        refresh s;
        v
      end
    in
    harvest s.cap inflow;
    drain s.cap joules;
    if not s.cap.on then s.outages <- s.outages + 1;
    s.cap.on

  let consume_run s ~costs =
    let on = ref true in
    Array.iter (fun c -> on := consume s ~cycles:c) costs;
    !on

  let wait_for_power s =
    let start = s.cycles in
    while not s.cap.on do
      let tick = s.cycles / s.per_tick in
      let boundary = (tick + 1) * s.per_tick in
      harvest s.cap
        (Trace.power_at_tick s.trace tick
        *. (float_of_int (boundary - s.cycles) /. s.clock_hz));
      s.cycles <- boundary
    done;
    refresh s;
    s.cycles - start
end

let bits = Int64.bits_of_float

let check_same ctx ~cap ~supply (r : Ref.supply) =
  if bits (Capacitor.energy cap) <> bits r.cap.stored then
    Alcotest.failf "%s: stored energy %h, reference %h" ctx
      (Capacitor.energy cap) r.cap.stored;
  if Capacitor.is_on cap <> r.cap.on then Alcotest.failf "%s: latch differs" ctx;
  if Supply.now_cycles supply <> r.cycles then
    Alcotest.failf "%s: clock %d, reference %d" ctx (Supply.now_cycles supply)
      r.cycles;
  if Supply.outages supply <> r.outages then
    Alcotest.failf "%s: %d outages, reference %d" ctx (Supply.outages supply)
      r.outages;
  if
    bits (Supply.energy_consumed supply)
    <> bits (float_of_int r.consumed *. r.cycle_energy)
  then Alcotest.failf "%s: consumed energy differs" ctx

(* One scenario: a random interleaving of single consumes and fused
   runs on a capacitor-backed supply, checked against the reference
   after every call.  [cost] draws one instruction latency. *)
let lockstep_scenario ~name ~capacitance ~cycle_energy ~trace ~cost ~max_run
    ~calls ~seed () =
  let rng = Wn_util.Rng.create seed in
  let clock_hz = Supply.default_clock_hz in
  let cap = Capacitor.create ~capacitance () in
  let supply = Supply.create ~cycle_energy ~trace ~capacitor:cap () in
  let r = Ref.create ~clock_hz ~cycle_energy ~trace ~capacitance in
  check_same (name ^ " at create") ~cap ~supply r;
  let mid_run_outages = ref 0 in
  for call = 1 to calls do
    let ctx = Printf.sprintf "%s call %d" name call in
    (if Wn_util.Rng.int rng 3 = 0 then begin
       let cycles = cost rng in
       let on = Supply.consume supply ~cycles in
       if on <> Ref.consume r ~cycles then Alcotest.failf "%s: consume verdict" ctx
     end
     else begin
       let costs = Array.init (1 + Wn_util.Rng.int rng max_run) (fun _ -> cost rng) in
       let before = Supply.outages supply in
       let on = Supply.consume_run supply ~costs in
       if Supply.outages supply - before > 1 then incr mid_run_outages;
       if on <> Ref.consume_run r ~costs then
         Alcotest.failf "%s: consume_run verdict" ctx
     end);
    check_same ctx ~cap ~supply r;
    (* Sometimes keep computing while off (the rest of a run after a
       mid-run brown-out), otherwise recharge like the executor. *)
    if (not (Supply.is_on supply)) && Wn_util.Rng.int rng 4 <> 0 then begin
      let waited = Supply.wait_for_power supply in
      if waited <> Ref.wait_for_power r then Alcotest.failf "%s: wait differs" ctx;
      check_same (ctx ^ " after wait") ~cap ~supply r
    end
  done;
  !mid_run_outages

let mixed_cost rng =
  match Wn_util.Rng.int rng 8 with
  | 0 -> 16 (* iterative MUL *)
  | 1 -> 2
  | 2 -> 3
  | 3 -> 1 + Wn_util.Rng.int rng 40
  | _ -> 1

let test_lockstep_reference () =
  let rf = Trace.rf_burst ~seed:5 ~duration_s:2.0 () in
  let square = Trace.square ~on_ms:1 ~off_ms:2 ~power:3e-3 ~duration_s:0.5 in
  let strong = Trace.constant ~power:5e-2 ~duration_s:0.1 in
  let weak = Trace.square ~on_ms:1 ~off_ms:3 ~power:2e-3 ~duration_s:0.2 in
  List.iter
    (fun capacitance ->
      let c = Printf.sprintf "%gF" capacitance in
      (* Default energy on bursty RF: runs straddle tick edges and the
         capacitor browns out and recovers. *)
      ignore
        (lockstep_scenario ~name:("rf " ^ c) ~capacitance ~cycle_energy:1e-9
           ~trace:rf ~cost:mixed_cost ~max_run:64 ~calls:3_000 ~seed:1 ());
      (* Long runs on a square wave: many runs span a 24k-cycle tick. *)
      ignore
        (lockstep_scenario ~name:("square " ^ c) ~capacitance
           ~cycle_energy:2e-10 ~trace:square
           ~cost:(fun rng -> 1 + Wn_util.Rng.int rng 600)
           ~max_run:64 ~calls:2_000 ~seed:2 ());
      (* Harvest far above drain: the capacitor sits at the v_max clamp. *)
      ignore
        (lockstep_scenario ~name:("clamped " ^ c) ~capacitance
           ~cycle_energy:1e-10 ~trace:strong ~cost:mixed_cost ~max_run:32
           ~calls:2_000 ~seed:3 ());
      (* Weak harvest and a heavy drain: runs brown out part-way
         through, and the remaining costs drain an already-off
         capacitor. *)
      let mid_run =
        lockstep_scenario ~name:("brown-out " ^ c) ~capacitance
          ~cycle_energy:(capacitance *. 2e-4) ~trace:weak ~cost:mixed_cost
          ~max_run:64 ~calls:1_000 ~seed:4 ()
      in
      if mid_run = 0 then Alcotest.failf "brown-out %s: no run browned out mid-run" c)
    [ 10e-6; 1e-6; 2e-6; 0.01e-6 ]

(* The run that browns out part-way must count one outage per cost
   that leaves the capacitor off, exactly as per-cost consumes do. *)
let test_mid_run_outages () =
  let trace = Trace.constant ~power:0.0 ~duration_s:0.1 in
  let cap = Capacitor.create () in
  let supply = Supply.create ~trace ~capacitor:cap () in
  let r =
    Ref.create ~clock_hz:Supply.default_clock_hz
      ~cycle_energy:Supply.default_cycle_energy ~trace ~capacitance:10e-6
  in
  (* ~15k cycles of charge: 1k MULs run well past brown-out. *)
  let costs = Array.make 1_000 16 in
  let on = Supply.consume_run supply ~costs in
  Alcotest.(check bool) "off at run end" false on;
  Alcotest.(check bool) "reference agrees" (Ref.consume_run r ~costs) on;
  check_same "mid-run" ~cap ~supply r;
  if Supply.outages supply < 2 then
    Alcotest.failf "expected per-cost outages, got %d" (Supply.outages supply)

(* The seed's latch decisions as predicates on stored energy. *)
let seed_voltage ~capacitance s = sqrt (2.0 *. s /. capacitance)

(* Least float [s >= 0] with [seed_voltage s >= v], by bisection over
   the ordered bit patterns of non-negative floats. *)
let seed_threshold ~capacitance v =
  let lo = ref 0L and hi = ref (Int64.bits_of_float (capacitance *. v *. v)) in
  while Int64.sub !hi !lo > 1L do
    let mid = Int64.add !lo (Int64.div (Int64.sub !hi !lo) 2L) in
    if seed_voltage ~capacitance (Int64.float_of_bits mid) >= v then hi := mid
    else lo := mid
  done;
  Int64.float_of_bits !hi

let test_threshold_neighbours () =
  List.iter
    (fun capacitance ->
      let e_max = 0.5 *. capacitance *. 2.5 *. 2.5 in
      let e_off = seed_threshold ~capacitance 1.8 in
      let e_on = seed_threshold ~capacitance 2.3 in
      if seed_voltage ~capacitance (Float.pred e_off) >= 1.8 then
        Alcotest.fail "bisection missed the v_off threshold";
      List.iter
        (fun s ->
          let ctx = Printf.sprintf "C=%g s=%h" capacitance s in
          (* Brown-out: from full charge, drain to exactly [s] while on.
             The subtraction is exact (Sterbenz: s >= e_max / 2). *)
          let cap = Capacitor.create ~capacitance () in
          Capacitor.drain cap (e_max -. s);
          if bits (Capacitor.energy cap) <> bits s then
            Alcotest.failf "%s: could not place stored energy" ctx;
          Alcotest.(check bool)
            (ctx ^ " brown-out latch")
            (not (seed_voltage ~capacitance s < 1.8))
            (Capacitor.is_on cap);
          (* Turn-on: from empty and off, harvest exactly [s]. *)
          let cap = Capacitor.create ~capacitance () in
          Capacitor.drain cap e_max;
          Capacitor.harvest cap s;
          Alcotest.(check bool)
            (ctx ^ " turn-on latch")
            (seed_voltage ~capacitance s >= 2.3)
            (Capacitor.is_on cap);
          (* [covers] agrees with the boxed usable energy. *)
          List.iter
            (fun cycles ->
              Alcotest.(check bool)
                (ctx ^ " covers")
                (Capacitor.usable_energy cap
                >= float_of_int cycles *. Supply.default_cycle_energy)
                (Capacitor.covers cap ~cycles
                   ~cycle_energy:Supply.default_cycle_energy))
            [ 0; 1; 1_000; 100_000 ])
        [
          Float.pred e_off; e_off; Float.succ e_off;
          Float.pred e_on; e_on; Float.succ e_on;
        ])
    [ 10e-6; 1e-6; 2e-6; 0.01e-6 ]

let () =
  Alcotest.run "wn.power"
    [
      ( "trace",
        [
          Alcotest.test_case "constant" `Quick test_trace_basics;
          Alcotest.test_case "square" `Quick test_trace_square;
          Alcotest.test_case "rf burst" `Quick test_trace_rf_burst;
          Alcotest.test_case "paper suite" `Quick test_paper_suite;
        ] );
      ( "capacitor",
        [
          Alcotest.test_case "hysteresis" `Quick test_capacitor_hysteresis;
          Alcotest.test_case "energy" `Quick test_capacitor_energy;
          Alcotest.test_case "bad config" `Quick test_capacitor_bad_config;
          Alcotest.test_case "random-walk invariants" `Quick
            test_capacitor_invariants_random;
        ] );
      ( "supply",
        [
          Alcotest.test_case "accounting" `Quick test_supply_accounting;
          Alcotest.test_case "outage and recovery" `Quick test_supply_outage_and_recovery;
          Alcotest.test_case "starved" `Quick test_supply_starved;
          Alcotest.test_case "piecewise harvest" `Quick test_supply_piecewise_harvest;
          Alcotest.test_case "mid-tick wait_for_power" `Quick test_wait_for_power_mid_tick;
          Alcotest.test_case "hysteresis under tick cache" `Quick
            test_supply_hysteresis_under_tick_cache;
          Alcotest.test_case "scripted outages" `Quick test_supply_scripted;
          Alcotest.test_case "cut on capacitor supply" `Quick
            test_supply_cut_capacitor_backed;
          Alcotest.test_case "burst calibration" `Quick test_burst_length_calibration;
        ] );
      ( "bit-exact",
        [
          Alcotest.test_case "lockstep with sqrt reference" `Quick
            test_lockstep_reference;
          Alcotest.test_case "mid-run brown-out" `Quick test_mid_run_outages;
          Alcotest.test_case "threshold neighbours" `Quick
            test_threshold_neighbours;
        ] );
    ]
