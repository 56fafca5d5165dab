let word_bits = 32

let mask bits =
  if bits <= 0 || bits > 62 then invalid_arg "Subword.mask"
  else (1 lsl bits) - 1

let truncate ~bits v = v land mask bits

let count ~bits ~width =
  if bits <= 0 || width mod bits <> 0 then invalid_arg "Subword.count"
  else width / bits

let extract ~bits ~pos v = (v lsr (pos * bits)) land mask bits

let insert ~bits ~pos ~into sub =
  let m = mask bits lsl (pos * bits) in
  (into land lnot m) lor ((sub land mask bits) lsl (pos * bits))

let split ~bits ~width v =
  let n = count ~bits ~width in
  let rec loop pos acc =
    if pos >= n then acc
    else loop (pos + 1) (extract ~bits ~pos v :: acc)
  in
  (* Accumulating from position 0 upward and consing yields the
     most-significant-first order WN processes subwords in. *)
  loop 0 []

let combine ~bits subs =
  List.fold_left (fun acc sub -> (acc lsl bits) lor (sub land mask bits)) 0 subs

let sign_extend ~bits v =
  let v = truncate ~bits v in
  if v land (1 lsl (bits - 1)) <> 0 then v - (1 lsl bits) else v

let to_signed = sign_extend

let of_signed ~bits v = truncate ~bits v

(* A plain loop over a local accumulator: no closure is built per call,
   so the ADD_ASV/SUB_ASV datapath allocates nothing. *)
let lanes_map2 ~lane_bits ~width f a b =
  let n = count ~bits:lane_bits ~width in
  let acc = ref 0 in
  for pos = 0 to n - 1 do
    let la = extract ~bits:lane_bits ~pos a
    and lb = extract ~bits:lane_bits ~pos b in
    let r = truncate ~bits:lane_bits (f la lb) in
    acc := insert ~bits:lane_bits ~pos ~into:!acc r
  done;
  !acc

let lanes_add ~lane_bits ~width a b = lanes_map2 ~lane_bits ~width ( + ) a b
let lanes_sub ~lane_bits ~width a b = lanes_map2 ~lane_bits ~width ( - ) a b

let reconstruct_prefix ~bits ~width ~taken v =
  let n = count ~bits ~width in
  if taken < 0 || taken > n then invalid_arg "Subword.reconstruct_prefix";
  if taken = 0 then 0
  else
    let keep = taken * bits in
    let m = mask keep lsl (width - keep) in
    v land m
