(** The library's shared error type.

    Every user-facing entry point ([Transfer.send], [Scheduler.run],
    [Udp_np.run_local], ...) validates its inputs and returns
    [('a, Error.t) result] instead of raising: an error carries the
    [context] (the entry point that rejected the call, ["Transfer.send"])
    and a human-readable [reason] (["empty message"]).

    The [_exn] variants of those entry points raise
    [Invalid_argument (to_string error)] — i.e. exactly the
    ["context: reason"] strings the pre-redesign API raised — so tests and
    quick scripts keep their one-line call sites. *)

type t = { context : string; reason : string }

val make : context:string -> string -> t

val msgf : context:string -> ('a, unit, string, t) format4 -> 'a
(** [msgf ~context fmt ...] formats the reason. *)

val to_string : t -> string
(** ["context: reason"]. *)

val pp : Format.formatter -> t -> unit

val get_exn : ('a, t) result -> 'a
(** Unwrap, raising [Invalid_argument (to_string e)] on [Error e] — the
    bridge the [_exn] entry-point variants are built from. *)

val invalid_arg : context:string -> string -> ('a, t) result
(** [Error (make ~context reason)] — shorthand for validators. *)
