(* Every field is a float ([on] is 1.0/0.0), so the record is a flat
   float block and [stored <- ...] writes an unboxed double in place.
   Hot arithmetic stays inside this module: the library is compiled
   [-opaque], so any float crossing a module boundary is boxed. *)
type t = {
  capacitance : float;
  v_on : float;
  e_max : float; (* ½C·v_max², the regulator clamp *)
  e_empty : float; (* ½C·v_off²: [set_empty], the zero of [usable_energy] *)
  (* Least stored energies whose [voltage] reaches v_off / v_on:
     [voltage t < v_off] iff [stored < e_off], [voltage t >= v_on] iff
     [stored >= e_on].  See [threshold]. *)
  e_off : float;
  e_on : float;
  mutable stored : float; (* joules *)
  mutable on : float; (* 1.0 while powered, 0.0 after brown-out *)
}

let energy_at c v = 0.5 *. c *. v *. v

let[@inline] voltage_of c s = sqrt (2.0 *. s /. c)

(* [s ↦ sqrt (2s / c)] composes correctly rounded IEEE operations, each
   monotone non-decreasing in [s] for c > 0, so [voltage_of c s >= v]
   holds on an up-set of floats.  Its least element is found by walking
   ulps from ½CV², which lands within a few ulps of it. *)
let[@inline] threshold c v =
  let s = ref (energy_at c v) in
  if voltage_of c !s >= v then
    while voltage_of c (Float.pred !s) >= v do
      s := Float.pred !s
    done
  else
    while voltage_of c !s < v do
      s := Float.succ !s
    done;
  !s

let create ?(capacitance = 10e-6) ?(v_on = 2.3) ?(v_off = 1.8) ?(v_max = 2.5)
    () =
  if capacitance <= 0.0 || v_off <= 0.0 || v_off >= v_on || v_on > v_max then
    invalid_arg "Capacitor.create";
  let e_max = energy_at capacitance v_max in
  {
    capacitance;
    v_on;
    e_max;
    e_empty = energy_at capacitance v_off;
    e_off = threshold capacitance v_off;
    e_on = threshold capacitance v_on;
    stored = e_max;
    on = 1.0;
  }

let voltage t = voltage_of t.capacitance t.stored

let energy t = t.stored

let usable_energy t = Float.max 0.0 (t.stored -. t.e_empty)

let burst_budget t = t.e_max -. t.e_empty

let restart_budget t = energy_at t.capacitance t.v_on -. t.e_empty

let is_on t = t.on <> 0.0

let[@inline] update_state t =
  if t.on <> 0.0 then begin
    if t.stored < t.e_off then t.on <- 0.0
  end
  else if t.stored >= t.e_on then t.on <- 1.0

(* [Float.max 0.0 x] and [Float.min t.e_max x] spelled as comparisons
   that keep the NaN and signed-zero results of the stdlib calls. *)
let[@inline] store_drained t x =
  if x <= 0.0 then t.stored <- 0.0 else t.stored <- x

let[@inline] store_harvested t x =
  if x > t.e_max then t.stored <- t.e_max else t.stored <- x

let drain t joules =
  if joules < 0.0 then invalid_arg "Capacitor.drain";
  store_drained t (t.stored -. joules);
  update_state t

let harvest t joules =
  if joules < 0.0 then invalid_arg "Capacitor.harvest";
  store_harvested t (t.stored +. joules);
  update_state t

(* The burst kernel: harvest [power] over [cycles], then drain them,
   latching after each — the same operations in the same order as
   [harvest] followed by [drain]. *)
let[@inline] step t cycles ~power ~clock_hz ~cycle_energy =
  let cycles = float_of_int cycles in
  store_harvested t (t.stored +. (power *. (cycles /. clock_hz)));
  update_state t;
  store_drained t (t.stored -. (cycles *. cycle_energy));
  update_state t

let burst t ~cycles ~power ~clock_hz ~cycle_energy =
  step t cycles ~power ~clock_hz ~cycle_energy;
  t.on <> 0.0

let burst_run t costs i j ~power ~clock_hz ~cycle_energy =
  if i < 0 || j > Array.length costs then invalid_arg "Capacitor.burst_run";
  let off = ref 0 in
  for k = i to j - 1 do
    step t (Array.unsafe_get costs k) ~power ~clock_hz ~cycle_energy;
    if t.on = 0.0 then incr off
  done;
  !off

let covers t ~cycles ~cycle_energy =
  let need = float_of_int cycles *. cycle_energy in
  let u = t.stored -. t.e_empty in
  if u <= 0.0 then 0.0 >= need else u >= need

let set_empty t =
  t.stored <- t.e_empty;
  t.on <- 0.0

let set_full t =
  t.stored <- t.e_max;
  t.on <- 1.0

let copy t = { t with capacitance = t.capacitance }
