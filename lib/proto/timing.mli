(** Transmission timing (paper §4.2, Figure 13).

    Timing only matters under temporally correlated loss: whether
    retransmissions land inside or beyond a loss burst decides whether they
    survive.  [spacing] is the inter-packet gap delta = 1/lambda within a
    volley; [feedback_delay] is the gap T between the end of one round and
    the start of the next (detection + NAK + scheduling). *)

type t = { spacing : float; feedback_delay : float }

val paper_burst : t
(** The §4.2 simulation parameters: delta = 40 ms (25 packets/s, Bolot's
    INRIA-UCL measurement) and T = 300 ms. *)

val instantaneous : t
(** Zero gaps — appropriate under memoryless loss where timing is
    irrelevant; keeps virtual time compact. *)
