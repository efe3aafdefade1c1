module Rng = Rmc_numerics.Rng
module Sampler = Rmc_numerics.Sampler

type regime =
  | Independent of { p : float }
  | Heterogeneous of { class_of : int -> float; ranges : (int * int * float) list }
    (* ranges: (first receiver, count, p) per class *)
  | Fbt of { topology : Topology.t; p_node : float }
  | Temporal of { processes : Loss.t array }

type t = {
  rng : Rng.t;
  receivers : int;
  regime : regime;
  mutable last_time : float;
}

type transmission =
  | Tx_independent of { rng : Rng.t; p : float; receivers : int }
  | Tx_hetero of { rng : Rng.t; class_of : int -> float; ranges : (int * int * float) list }
  | Tx_fbt of { topology : Topology.t; failed : (int, unit) Hashtbl.t }
  | Tx_temporal of { processes : Loss.t array; time : float }

let independent rng ~receivers ~p =
  if receivers < 1 then invalid_arg "Network.independent: need at least one receiver";
  if not (p >= 0.0 && p < 1.0) then invalid_arg "Network.independent: p outside [0,1)";
  { rng; receivers; regime = Independent { p }; last_time = neg_infinity }

let heterogeneous rng ~classes =
  List.iter
    (fun (p, count) ->
      if not (p >= 0.0 && p < 1.0) then invalid_arg "Network.heterogeneous: p outside [0,1)";
      if count < 0 then invalid_arg "Network.heterogeneous: negative count")
    classes;
  let classes = List.filter (fun (_, count) -> count > 0) classes in
  let receivers = List.fold_left (fun acc (_, count) -> acc + count) 0 classes in
  if receivers = 0 then invalid_arg "Network.heterogeneous: empty population";
  let ranges =
    List.rev
      (snd
         (List.fold_left
            (fun (start, acc) (p, count) -> (start + count, (start, count, p) :: acc))
            (0, []) classes))
  in
  let class_of r =
    let rec find = function
      | [] -> invalid_arg "Network: receiver out of range"
      | (start, count, p) :: rest -> if r < start + count then p else find rest
    in
    find ranges
  in
  { rng; receivers; regime = Heterogeneous { class_of; ranges }; last_time = neg_infinity }

let fbt rng ~height ~p =
  let topology = Topology.full_binary ~height in
  let p_node = Topology.node_loss_probability topology ~receiver_loss:p in
  {
    rng;
    receivers = Topology.receivers topology;
    regime = Fbt { topology; p_node };
    last_time = neg_infinity;
  }

let temporal rng ~receivers ~make =
  if receivers < 1 then invalid_arg "Network.temporal: need at least one receiver";
  let processes = Array.init receivers (fun _ -> make (Rng.split rng)) in
  { rng; receivers; regime = Temporal { processes }; last_time = neg_infinity }

let receivers t = t.receivers

let description t =
  match t.regime with
  | Independent { p } -> Printf.sprintf "independent loss, R=%d, p=%g" t.receivers p
  | Heterogeneous { ranges; _ } ->
    let classes =
      String.concat "+"
        (List.map (fun (_, count, p) -> Printf.sprintf "%d@%g" count p) ranges)
    in
    Printf.sprintf "heterogeneous loss, %s" classes
  | Fbt { topology; p_node } ->
    Printf.sprintf "full binary tree, d=%d, R=%d, p_node=%g" (Topology.height topology)
      t.receivers p_node
  | Temporal { processes } ->
    Printf.sprintf "temporal loss, R=%d, p=%g" t.receivers
      (Loss.loss_probability processes.(0))

let transmit t ~time =
  if time < t.last_time then invalid_arg "Network.transmit: time went backwards";
  t.last_time <- time;
  match t.regime with
  | Independent { p } -> Tx_independent { rng = t.rng; p; receivers = t.receivers }
  | Heterogeneous { class_of; ranges } -> Tx_hetero { rng = t.rng; class_of; ranges }
  | Fbt { topology; p_node } ->
    let failed_nodes =
      Sampler.subset_bernoulli t.rng ~n:(Topology.node_count topology) ~p:p_node
    in
    let failed = Hashtbl.create (max 8 (Array.length failed_nodes)) in
    (* subset_bernoulli yields 0-based indices; heap nodes are 1-based. *)
    Array.iter (fun node -> Hashtbl.replace failed (node + 1) ()) failed_nodes;
    Tx_fbt { topology; failed }
  | Temporal { processes } -> Tx_temporal { processes; time }

let lost tx receiver =
  match tx with
  | Tx_independent { rng; p; receivers } ->
    if receiver < 0 || receiver >= receivers then invalid_arg "Network.lost: out of range";
    Rng.bernoulli rng p
  | Tx_hetero { rng; class_of; _ } -> Rng.bernoulli rng (class_of receiver)
  | Tx_fbt { topology; failed } ->
    Topology.path_has_failed_node topology ~failed:(Hashtbl.mem failed) ~receiver
  | Tx_temporal { processes; time } -> Loss.lost processes.(receiver) time

let iter_losers tx f =
  match tx with
  | Tx_independent { rng; p; receivers } ->
    Array.iter f (Sampler.subset_bernoulli rng ~n:receivers ~p)
  | Tx_hetero { rng; ranges; _ } ->
    List.iter
      (fun (start, count, p) ->
        Array.iter (fun i -> f (start + i)) (Sampler.subset_bernoulli rng ~n:count ~p))
      ranges
  | Tx_fbt { topology; failed } ->
    (* Union of the receiver ranges under failed nodes; a hash set removes
       the overlap between a failed node and its failed descendants. *)
    let losers = Hashtbl.create 64 in
    Hashtbl.iter
      (fun node () ->
        let first, last = Topology.receiver_range topology ~node in
        for r = first to last do
          Hashtbl.replace losers r ()
        done)
      failed;
    Hashtbl.iter (fun r () -> f r) losers
  | Tx_temporal { processes; time } ->
    Array.iteri (fun r process -> if Loss.lost process time then f r) processes
