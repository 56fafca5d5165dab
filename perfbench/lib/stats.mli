(** Order statistics for benchmark samples. *)

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [\[0, 100\]]: linear interpolation
    between the closest ranks of the sorted samples (numpy's default).
    Raises [Invalid_argument] on an empty array or [p] out of range. *)

val median : float array -> float
(** [percentile xs 50.0]. *)

val quartiles : float array -> float * float * float
(** First quartile, median and third quartile by the same rule as
    Python's [statistics.quantiles(xs, n=4)] (the default "exclusive"
    method), which is how run-to-run spread is judged.  Needs at least
    two samples. *)
