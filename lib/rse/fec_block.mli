(** Runtime state of one transmission group (TG) and its FEC block.

    The protocols of §3-5 all revolve around the same two objects:

    - a {b sender block}: k data packets plus a repair generator that is
      tapped on demand (protocol NP encodes repair packets only when a
      NAK asks for them; layered FEC encodes h of them up front);
    - a {b receiver block}: a bucket that accumulates whichever packets
      arrive and can tell at any time how many more it needs ([needed]),
      decode once enough have arrived, and list which data packets are
      still missing.

    Both sides are parameterised by a {!Codec.t}, which is only a
    coefficient-row source: the sender applies row [j] to the data with
    the one encoder loop ({!Codec_core.combine}), and the receiver is
    the one elimination decoder ({!Codec_core.Elimination}) over the
    same rows.  So the same bookkeeping serves the MDS block codecs,
    where "enough" means any [k] distinct packets, and RLNC, where a
    repair packet spans the whole window and "enough" is reaching full
    rank.  Shared by the simulator protocols, the wire protocol and the
    examples. *)

module Sender : sig
  type t

  val create : codec:Codec.t -> h:int -> Bytes.t array -> t
  (** [create ~codec ~h data] binds a sender block to the [k =
      Array.length data] data packets with repair budget [h].
      @raise Invalid_argument if the payload lengths are unequal or
      [(k, h)] is out of range for [codec] ({!Codec.repair_rows}). *)

  val k : t -> int
  val h : t -> int
  val data : t -> Bytes.t array

  val parity : t -> int -> Bytes.t
  (** [parity t j] returns repair packet [j] ([0 <= j < h]), encoding it
      on first use and caching it (pre-encoding = calling {!precompute}
      ahead of time). *)

  val parities_issued : t -> int
  (** How many distinct repair packets have been issued so far. *)

  val next_parities : t -> int -> (int * Bytes.t) list
  (** [next_parities t l] returns the next [l] previously unissued
      repair packets as [(repair_index, payload)] — what NP multicasts
      in a repair round.
      @raise Failure if the budget runs out ([> h] requested in total);
      the caller must then re-group (paper §3.2). *)

  val precompute : t -> unit
  (** Force all [h] repair packets now (the paper's pre-encoding
      variant, §5). *)
end

module Receiver : sig
  type t

  val create : codec:Codec.t -> k:int -> h:int -> t
  (** An empty decoder for a [(k, h)] block of [codec].
      @raise Invalid_argument if [(k, h)] is out of range for [codec]. *)

  val add : t -> index:int -> Bytes.t -> bool
  (** Record the arrival of packet [index] (data [0..k-1], repair
      [k..k+h-1]).  Returns [false] if the packet did not advance the
      decoder — a duplicate, a non-innovative combination, or any
      packet after completion ({!Codec_core.Elimination.add}, which
      also states who owns the payload).
      @raise Invalid_argument on an out-of-range index. *)

  val k : t -> int
  val h : t -> int

  val received : t -> int
  (** Distinct useful packets held. *)

  val needed : t -> int
  (** How many more packets this receiver must hear — the number a NAK
      reports in protocol NP ([0] iff {!complete}). *)

  val complete : t -> bool
  (** Whether {!decode} will succeed. *)

  val has_data : t -> int -> bool
  (** Whether data packet [index < k] arrived verbatim. *)

  val missing_data : t -> int list
  (** Indices of data packets not received verbatim (reconstructible
      iff [complete]). *)

  val decode : t -> Bytes.t array
  (** All k data packets. @raise Failure if [not (complete t)]. *)
end
