(** The hex form capture logs store packets and payloads in. *)

val encode : Bytes.t -> string
(** Lower-case hex, two digits per byte. *)

val decode : string -> (Bytes.t, string) result
(** Inverse of {!encode}; either case.  [Error "odd-length hex string"]
    or [Error "malformed hex string"] otherwise. *)
