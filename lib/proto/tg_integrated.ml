module Network = Rmc_sim.Network
module Rng = Rmc_numerics.Rng
module Codec = Rmc_rse.Codec

type variant = Open_loop | Nak_rounds

let run net ~k ?(a = 0) ~variant ~codec ~rng ~(timing : Timing.t) ~start () =
  if k < 1 then invalid_arg "Tg_integrated.run: k must be >= 1";
  if a < 0 then invalid_arg "Tg_integrated.run: a must be >= 0";
  let c = Codec.of_kind codec in
  let receivers = Network.receivers net in
  let time = ref start in
  let data_tx = ref 0 and parity_tx = ref 0 in
  let unnecessary = ref 0 and feedback = ref 0 in
  let rounds = ref 1 in
  let send counter =
    let tx = Network.transmit net ~time:!time in
    time := !time +. timing.spacing;
    incr counter;
    tx
  in
  (* A received parity raises a receiver's rank by one only with the codec's
     innovation probability (1 for the MDS block codes, < 1 for the rateless
     ones near completion).  The [p >= 1.0] short-circuit keeps the MDS path
     free of RNG draws. *)
  let innovative need =
    let p = Codec.innovation_probability c ~k ~rank:(k - need) in
    p >= 1.0 || Rng.float rng < p
  in
  (* --- Initial volley: k data packets... ------------------------------ *)
  let losses : (int, int) Hashtbl.t = Hashtbl.create 64 in
  for _ = 1 to k do
    Network.iter_losers (send data_tx) (fun r ->
        Hashtbl.replace losses r (1 + Option.value ~default:0 (Hashtbl.find_opt losses r)))
  done;
  (* needing r = k - rank r: data packets are pairwise distinct, so every
     data reception is innovative and the deficit after the data volley is
     just the loss count.  Building it as a copy of [losses] fixes its
     iteration order, which is the order of the innovation draws. *)
  let needing : (int, int) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter (fun r l -> Hashtbl.replace needing r l) losses;
  let max_needed () = Hashtbl.fold (fun _ n acc -> max n acc) needing 0 in
  (* Apply one multicast parity: every still-deficient receiver that got it
     draws against the innovation probability at its current rank.  The
     updates are collected first because mutating a Hashtbl while folding
     over it is undefined. *)
  let apply_parity losers =
    let updates =
      Hashtbl.fold
        (fun r need acc ->
          if Loser_set.mem losers r then acc
          else if innovative need then (r, need - 1) :: acc
          else acc)
        needing []
    in
    List.iter
      (fun (r, need) ->
        if need = 0 then Hashtbl.remove needing r else Hashtbl.replace needing r need)
      updates
  in
  (* --- ...and a proactive parities. ----------------------------------- *)
  for _ = 1 to a do
    apply_parity (Loser_set.of_transmission (send parity_tx))
  done;
  (match variant with
  | Open_loop ->
    (* Parities stream at the packet rate; satisfied receivers have left the
       group, so nothing they would receive counts as traffic to them. *)
    while Hashtbl.length needing > 0 do
      apply_parity (Loser_set.of_transmission (send parity_tx))
    done
  | Nak_rounds ->
    while Hashtbl.length needing > 0 do
      incr rounds;
      incr feedback;
      time := !time +. timing.feedback_delay;
      let batch = max_needed () in
      for _ = 1 to batch do
        let losers = Loser_set.of_transmission (send parity_tx) in
        (* Receivers that already decoded but are still in the group
           receive this parity without needing it. *)
        let complete = receivers - Hashtbl.length needing in
        let losing_complete = Loser_set.count_outside losers (Hashtbl.mem needing) in
        unnecessary := !unnecessary + complete - losing_complete;
        apply_parity losers
      done
    done);
  {
    Tg_result.k;
    data_transmissions = !data_tx;
    parity_transmissions = !parity_tx;
    rounds = !rounds;
    feedback_messages = !feedback;
    unnecessary_receptions = !unnecessary;
    finish_time = !time;
  }
