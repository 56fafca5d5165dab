(** Metric names, the benchmark's metric catalogue, and the result
    line. *)

val valid_name : string -> bool
(** 1 to 64 characters from [A-Za-z0-9_.-], starting with a letter or
    digit. *)

val valid_unit : string -> bool
(** 1 to 16 characters from [A-Za-z0-9_/%.-]. *)

type kind = End_to_end | Per_layer

val layers : string list
(** The layers spans are attributed to; the traced run reports one
    [self_ms.<layer>] metric per entry.  ["bench"] is the benchmark's
    own code between calls into the program. *)

val catalogue : (string * string * kind) list
(** Every metric the benchmark prints: name, unit, kind.  With
    [--trace 0] a run prints exactly the end-to-end metrics, with
    [--trace 1] exactly the per-layer ones. *)

val unit_of : string -> string
(** The catalogue unit of a metric name.  Raises [Not_found]. *)

val result_line :
  correct:bool -> attempted:int -> failed:int -> (string * float) list -> string
(** The one-line JSON result:
    [{"correct": .., "attempted": .., "failed": .., "metrics": {name:
    {"value": v, "unit": u}}}], each value printed with all its digits.
    Raises [Invalid_argument] on a name outside the charset or the
    catalogue, a repeated name, or a non-finite value. *)
