(* Host-speed calibration.

   The benchmark host is shared, and its speed drifts by tens of
   percent over minutes (the same fleet round ran 70% faster five
   minutes later, with no steal time reported), and the drift hits
   interpreter-like code harder than a tight arithmetic loop.  Medians
   over longer runs cannot remove a drift that slow, so every host time
   is measured next to a fixed piece of work owned by the benchmark —
   none of the program's code runs in it — timed right before and right
   after every measured phase, and rescaled to a host on which that work
   takes [nominal_s] on each of the domains used.  Program changes move the
   measured time and not the calibration, so they show in full; host
   drift moves both and partly cancels.

   The work is a small register machine interpreting a fixed
   pseudo-random program over a 256 KiB memory, allocating as it goes:
   unpredictable dispatch, L2-sized data and minor collections, like
   the simulator it stands beside. *)

let nominal_s = 0.1

type op =
  | Add of int * int * int
  | Mul of int * int * int
  | Xor of int * int * int
  | Shr of int * int
  | Load of int * int
  | Store of int * int
  | Branch of int * int
  | Jump of int
  | Box of int

let program_length = 4096
let memory_words = 32768
let steps = 4_000_000

let program =
  let seed = ref 12345 in
  let next n =
    seed := ((!seed * 1103515245) + 12345) land 0x3fffffff;
    !seed mod n
  in
  Array.init program_length (fun pc ->
      let r () = next 16 in
      match next 9 with
      | 0 -> Add (r (), r (), r ())
      | 1 -> Mul (r (), r (), r ())
      | 2 -> Xor (r (), r (), r ())
      | 3 -> Shr (r (), r ())
      | 4 -> Load (r (), r ())
      | 5 -> Store (r (), r ())
      | 6 -> Branch (r (), (pc + 1 + next 64) land (program_length - 1))
      | 7 -> Jump ((pc + 1 + next 8) land (program_length - 1))
      | _ -> Box (r ()))

let interpret () =
  let regs = Array.make 16 1 and memory = Array.make memory_words 0 in
  let boxes = ref [] and pc = ref 0 in
  for _ = 1 to steps do
    let op = program.(!pc) in
    pc := (!pc + 1) land (program_length - 1);
    match op with
    | Add (d, a, b) -> regs.(d) <- (regs.(a) + regs.(b)) land 0xffffffff
    | Mul (d, a, b) -> regs.(d) <- ((regs.(a) * regs.(b)) + 7) land 0xffffffff
    | Xor (d, a, b) -> regs.(d) <- regs.(a) lxor regs.(b) lxor 0x5bd1e995
    | Shr (d, a) -> regs.(d) <- (regs.(a) lsr 3) lor 1
    | Load (d, a) -> regs.(d) <- memory.(regs.(a) land (memory_words - 1))
    | Store (d, a) -> memory.(regs.(a) land (memory_words - 1)) <- regs.(d)
    | Branch (a, target) -> if regs.(a) land 1 = 0 then pc := target
    | Jump target -> pc := target
    | Box a ->
        boxes :=
          (regs.(a), float_of_int regs.(a))
          :: (match !boxes with _ :: _ :: _ :: _ -> [] | l -> l)
  done;
  Array.fold_left ( + ) (List.length !boxes) regs

(* Wall time of the fixed work run at once on [domains] domains. *)
let measure ~domains =
  let t0 = Unix.gettimeofday () in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn interpret) in
  let mine = interpret () in
  let sum = List.fold_left (fun acc d -> acc + Domain.join d) mine others in
  ignore (Sys.opaque_identity sum);
  Unix.gettimeofday () -. t0

(* Host seconds of a phase rescaled to the nominal host, by the mean of
   the calibrations taken right before and right after it, so the
   rescaling follows the host's speed through the run. *)
let rescale ~before ~after seconds = seconds *. nominal_s *. 2.0 /. (before +. after)
