(** Completion-latency model — the paper's §3 closing remark ("we expect a
    reduction in the required number of transmissions will often lead to a
    reduction in latency") and its "topic for future work", §6.

    All schemes pace packets [spacing] apart and pay [feedback_delay]
    between a round and its repair (detection + NAK + scheduling, the T of
    Figure 13).  The models below give the expected time until {e every}
    receiver can deliver the whole TG, under independent loss.

    They are first-order models: within a repair round the expected batch
    size is used instead of the full batch-size distribution.  The
    simulator's [finish_time] (see {!Rmc_proto.Tg_result}) provides the
    exact Monte-Carlo counterpart; the test suite checks the model against
    it. *)

type timing = { spacing : float; feedback_delay : float }
(** Seconds.  Each model raises [Invalid_argument] unless both fields are
    finite and [>= 0] (NaN included). *)

val no_fec : population:Receivers.t -> k:int -> timing -> float
(** Expected completion time of pure ARQ: the initial volley plus one
    feedback delay and an expected-batch volley per extra round.
    Rounds follow the group law of eq. (17)'s no-FEC analogue
    [P(rounds <= m) = prod_r (1 - p_r^m)^k]. *)

val integrated : population:Receivers.t -> k:int -> ?a:int -> timing -> unit -> float
(** Expected completion time of integrated FEC 2 / NP:
    [(k + a) spacing + (E[T] - 1) feedback_delay + E[L] spacing]
    — the initial volley, one feedback gap per repair round (eq. 17), and
    one packet time per parity ever sent (eq. 5). *)

val layered : population:Receivers.t -> k:int -> h:int -> timing -> float
(** Expected completion time of layered FEC: block volleys of
    [(k + h)] packets, with the number of rounds driven by the RM-layer
    residual loss q(k, n, p) of eq. (2). *)
