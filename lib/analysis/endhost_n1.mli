(** Processing model of protocol N1 — the sender-initiated, ACK-based
    baseline of Towsley, Kurose and Pingali [18], completing the §5
    protocol family (N1 vs N2 vs NP).  This model is the library's only
    N1: unlike N2 and NP, N1 has no event-driven simulator.  Figure E1
    ([bench/main.exe]) and [rmc endhost] read it.

    In N1 every receiver positively acknowledges every packet it receives;
    the sender keeps a retransmission timer per packet and re-multicasts
    when ACKs are missing at expiry.  The per-packet processing times
    follow [18]'s accounting structure (the exact constants are shared
    with {!Endhost.constants}):

    - sender: [E[M] (Xp + Xt)] to (re)transmit and manage the timer, plus
      [R E[M] (1-p) Xa] to absorb the ACK implosion;
    - receiver: [E[M] (1-p) (Yp + Ya)] to receive copies and ACK them.

    E[M] is the same no-FEC group quantity as for N2 (every receiver must
    receive every packet, and losses are i.i.d.), so the bandwidth is
    identical — the difference is pure feedback processing, and it is the
    reason receiver-initiated protocols win at scale: the sender rate
    decays like 1/R. *)

type constants = {
  base : Endhost.constants;
  ack_send : float;  (** Ya: build + transmit an ACK at a receiver *)
  ack_recv : float;  (** Xa: receive + process an ACK at the sender *)
}

val paper_constants : constants
(** {!Endhost.paper_constants} with ACK costs equal to the NAK costs
    (500 us), as in [18]'s measurements. *)

val n1 : ?constants:constants -> p:float -> receivers:int -> unit -> Endhost.rates

val max_receivers_for_throughput :
  ?constants:constants -> p:float -> target:float -> unit -> int
(** Largest R (up to 10^8) for which N1's throughput still meets [target]
    packets/second; bisection over the monotone rate curve.  Quantifies
    the ACK-implosion wall. *)
