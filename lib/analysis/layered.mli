(** Layered FEC (paper §3.1, after Huitema).

    An FEC layer below the reliable-multicast (RM) layer groups k data
    packets, appends h parities and sends all n = k + h.  If a receiver gets
    at least k of the n, every loss in the block is repaired transparently;
    otherwise the received parities are useless and the RM layer sees the
    lost originals, retransmitting them inside later blocks.

    The packet loss probability observed by the RM layer is eq. (2):
    [q(k,n,p) = p * P(Bin(n-1, p) >= n-k)] — the packet itself is lost AND at
    least h of the other n-1 packets of its block are lost.  The cost per
    successfully delivered packet counts the parity overhead on every
    (re)transmission, eq. (3):
    [E[M] = (n/k) * sum_{i>=0} (1 - (1 - q^i)^R)]. *)

val rm_loss_probability : k:int -> h:int -> p:float -> float
(** [q(k, k+h, p)] of eq. (2).  [h = 0] degenerates to [p]. *)

val expected_transmissions : k:int -> h:int -> population:Receivers.t -> float
(** E[M] of eq. (3) / eq. (7) (heterogeneous product form). *)

val expected_transmissions_homogeneous : k:int -> h:int -> p:float -> receivers:int -> float

val cdf : k:int -> h:int -> population:Receivers.t -> int -> float
(** [P(M' <= i)]: distribution of the number of times an arbitrary data
    packet must be (re)transmitted (parity overhead not included). *)

val expected_blocks : k:int -> h:int -> population:Receivers.t -> float
(** [E[B] = E[M']], the FEC blocks an arbitrary data packet passes through;
    also the first term of {!Integrated.expected_transmissions}. *)
