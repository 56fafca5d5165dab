(** In-memory span recorder for the traced replay.

    A span brackets one call into a layer of the program: its name, the
    layer it belongs to, start and end (seconds since the recorder was
    created), the enclosing span, and the unit (device, injected point
    or task) it serves.  Spans nest strictly — the replay is
    single-threaded — so a layer's {e self time} is its spans' duration
    minus the part covered by their child spans, and the self times of
    all spans sum to the duration of the root spans.

    A disabled recorder runs the bracketed call and records nothing, so
    the untraced and traced replays execute the same code. *)

type span = {
  id : int;
  parent : int;  (** enclosing span's [id]; [-1] for a root *)
  name : string;
  layer : string;
  unit_id : int;  (** inherited from the parent unless given; [-1] for none *)
  start : float;
  stop : float;
  words : float;  (** minor words allocated inside, children included *)
  count : int;  (** work count attached with {!count}, e.g. instructions *)
}

type t

val create : enabled:bool -> t

val span : t -> layer:string -> name:string -> ?unit_id:int -> (unit -> 'a) -> 'a
(** [span t ~layer ~name f] runs [f ()] inside a new span.  The span is
    closed (and recorded) even if [f] raises. *)

val count : t -> int -> unit
(** Add to the innermost open span's work count (no-op when disabled
    or outside any span). *)

val spans : t -> span list
(** Closed spans in start order. *)

val duration : span -> float

val self_times : span list -> (span * float) list
(** Each span with its self time: duration minus the summed durations
    of its direct children. *)

val layer_self : span list -> (string * float) list
(** Self time summed per layer, layers in first-appearance order. *)

val root_time : span list -> float
(** Summed duration of the root spans — the traced wall time. *)

val to_csv : out_channel -> span list -> unit
(** One line per span: id, parent, unit, layer, name, start, stop,
    minor words, count. *)
