module Tree = Rmcast.Tree
module Network = Rmcast.Network
module Loss = Rmcast.Loss
module Rng = Rmcast.Rng

let close ?(tol = 1e-9) name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: |%.12g - %.12g| < %g" name expected actual tol)
    true
    (Float.abs (expected -. actual) <= tol *. (1.0 +. Float.abs expected))

(* A small explicit tree:
        0
       / \
      1   2
     /|    \
    3 4     5
   leaves: 3 4 5 -> receivers 0 1 2 *)
let small = Tree.of_parents [| -1; 0; 0; 1; 1; 2 |]

let test_structure () =
  Alcotest.(check int) "nodes" 6 (Tree.node_count small);
  Alcotest.(check int) "receivers" 3 (Tree.receivers small);
  Alcotest.(check int) "parent of 3" 1 (Tree.parent small 3);
  Alcotest.(check (list int)) "children of 1" [ 3; 4 ] (Tree.children small 1);
  Alcotest.(check int) "depth of leaf" 2 (Tree.depth small 5);
  Alcotest.(check int) "max depth" 2 (Tree.max_depth small);
  Alcotest.(check bool) "leaf" true (Tree.is_leaf small 4);
  Alcotest.(check bool) "interior" false (Tree.is_leaf small 1)

let test_leaf_numbering () =
  Alcotest.(check int) "leaf 3 -> receiver 0" 0 (Tree.receiver_of_leaf small 3);
  Alcotest.(check int) "leaf 4 -> receiver 1" 1 (Tree.receiver_of_leaf small 4);
  Alcotest.(check int) "leaf 5 -> receiver 2" 2 (Tree.receiver_of_leaf small 5);
  for r = 0 to 2 do
    Alcotest.(check int) "roundtrip" r (Tree.receiver_of_leaf small (Tree.leaf_of_receiver small r))
  done

let test_ranges () =
  Alcotest.(check (pair int int)) "root" (0, 2) (Tree.receiver_range small 0);
  Alcotest.(check (pair int int)) "node 1" (0, 1) (Tree.receiver_range small 1);
  Alcotest.(check (pair int int)) "node 2" (2, 2) (Tree.receiver_range small 2);
  Alcotest.(check (pair int int)) "leaf 4" (1, 1) (Tree.receiver_range small 4)

let test_paths () =
  Alcotest.(check (list int)) "path of receiver 1" [ 4; 1; 0 ] (Tree.path_to_root small ~receiver:1);
  Alcotest.(check bool) "failure at node 1 hits receiver 0" true
    (Tree.path_has_failed_node small ~failed:(fun v -> v = 1) ~receiver:0);
  Alcotest.(check bool) "but not receiver 2" false
    (Tree.path_has_failed_node small ~failed:(fun v -> v = 1) ~receiver:2)

let test_of_parents_validation () =
  Alcotest.check_raises "root marker" (Invalid_argument "Tree.of_parents: node 0 must be the root")
    (fun () -> ignore (Tree.of_parents [| 0 |]));
  Alcotest.check_raises "ordering"
    (Invalid_argument "Tree.of_parents: parents must precede children") (fun () ->
      ignore (Tree.of_parents [| -1; 2; 0 |]))

let test_random_tree_invariants () =
  let rng = Rng.create ~seed:1 () in
  List.iter
    (fun receivers ->
      let tree = Tree.random rng ~receivers ~max_children:4 in
      Alcotest.(check int) "leaf count" receivers (Tree.receivers tree);
      (* Every interior node has 2..4 children; ranges are consistent. *)
      for v = 0 to Tree.node_count tree - 1 do
        let kids = List.length (Tree.children tree v) in
        Alcotest.(check bool) "fanout" true (kids = 0 || (kids >= 2 && kids <= 4));
        let first, last = Tree.receiver_range tree v in
        Alcotest.(check bool) "range nonempty" true (first <= last)
      done)
    [ 1; 2; 7; 64; 500 ]

let test_single_receiver_tree () =
  let tree = Tree.of_parents [| -1 |] in
  Alcotest.(check int) "one node" 1 (Tree.node_count tree);
  Alcotest.(check int) "one receiver" 1 (Tree.receivers tree);
  Alcotest.(check (pair int int)) "range" (0, 0) (Tree.receiver_range tree 0)

let test_uniform_node_loss () =
  (* depth 2 leaf: path of 3 nodes; 1-(1-q)^3 = 0.01. *)
  let q = Tree.uniform_node_loss small ~receiver:0 ~end_to_end:0.01 in
  close "calibration" 0.01 (1.0 -. ((1.0 -. q) ** 3.0))

let test_network_tree_loss_rate () =
  let rng = Rng.create ~seed:2 () in
  let tree = Tree.random rng ~receivers:256 ~max_children:3 in
  let q = 0.002 in
  let net = Network.tree (Rng.split rng) ~tree ~p_node:(fun _ -> q) in
  Alcotest.(check int) "receivers" 256 (Network.receivers net);
  (* Receiver 0's end-to-end loss = 1-(1-q)^(depth+1). *)
  let depth = Tree.depth tree (Tree.leaf_of_receiver tree 0) in
  let expected = 1.0 -. ((1.0 -. q) ** float_of_int (depth + 1)) in
  let reps = 40_000 in
  let losses = ref 0 in
  for i = 0 to reps - 1 do
    if Network.lost (Network.transmit net ~time:(float_of_int i)) 0 then incr losses
  done;
  let measured = float_of_int !losses /. float_of_int reps in
  Alcotest.(check bool)
    (Printf.sprintf "end-to-end %.4f ~ %.4f" measured expected)
    true
    (Float.abs (measured -. expected) < 0.25 *. expected +. 0.002)

let test_network_tree_iter_matches_lost () =
  let rng = Rng.create ~seed:3 () in
  let tree = Tree.random rng ~receivers:64 ~max_children:3 in
  let net = Network.tree (Rng.split rng) ~tree ~p_node:(fun _ -> 0.05) in
  for i = 0 to 99 do
    let tx = Network.transmit net ~time:(float_of_int i) in
    let from_iter = Hashtbl.create 16 in
    Network.iter_losers tx (fun r -> Hashtbl.replace from_iter r ());
    for r = 0 to 63 do
      Alcotest.(check bool) "agree" (Hashtbl.mem from_iter r) (Network.lost tx r)
    done
  done

let test_network_tree_protocols_run () =
  (* The TG machines work unchanged over arbitrary trees. *)
  let rng = Rng.create ~seed:4 () in
  let tree = Tree.random rng ~receivers:200 ~max_children:5 in
  let net = Network.tree (Rng.split rng) ~tree ~p_node:(fun _ -> 0.01) in
  let estimate =
    Rmcast.Runner.estimate net ~k:7 ~scheme:(Rmcast.Runner.Integrated_nak { a = 0; codec = `Rse }) ~reps:100 ()
  in
  let m = Rmcast.Runner.mean_m estimate in
  Alcotest.(check bool) (Printf.sprintf "sane E[M] %.3f" m) true (m >= 1.0 && m < 2.0)

(* --- Gilbert-Elliott --- *)

let test_gilbert_elliott_rate () =
  let loss =
    Loss.gilbert_elliott (Rng.create ~seed:5 ()) ~mu01:1.0 ~mu10:9.0 ~p_good:0.01 ~p_bad:0.5
  in
  (* pi1 = 0.1: marginal = 0.9*0.01 + 0.1*0.5 = 0.059 *)
  close "declared" 0.059 (Loss.loss_probability loss);
  let hits = ref 0 in
  let n = 200_000 in
  for i = 0 to n - 1 do
    if Loss.lost loss (float_of_int i *. 0.05) then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "empirical %.4f" rate) true
    (Float.abs (rate -. 0.059) < 0.006)

let test_gilbert_elliott_burstier_than_bernoulli () =
  let ge =
    Loss.gilbert_elliott (Rng.create ~seed:6 ()) ~mu01:0.5 ~mu10:4.5 ~p_good:0.0 ~p_bad:0.6
  in
  let burst = Loss.expected_burst_length ge ~spacing:0.05 in
  Alcotest.(check bool) (Printf.sprintf "burst %.3f > bernoulli" burst) true
    (burst > 1.0 /. (1.0 -. Loss.loss_probability ge) +. 0.05)

let test_gilbert_elliott_validation () =
  Alcotest.check_raises "p order"
    (Invalid_argument "Loss.gilbert_elliott: need 0 <= p_good <= p_bad < 1") (fun () ->
      ignore
        (Loss.gilbert_elliott (Rng.create ()) ~mu01:1.0 ~mu10:1.0 ~p_good:0.5 ~p_bad:0.1))

(* --- Feedback model --- *)

let test_feedback_closed_form_edges () =
  close "no suppression possible" 10.0
    (Rmcast.Feedback.expected_naks_single_window ~firers:10 ~window:0.1 ~delay:0.1);
  close "perfect suppression" 1.0
    (Rmcast.Feedback.expected_naks_single_window ~firers:10 ~window:0.1 ~delay:0.0);
  close "nobody" 0.0 (Rmcast.Feedback.expected_naks_single_window ~firers:0 ~window:0.1 ~delay:0.01)

let test_feedback_closed_form_matches_simulation () =
  let rng = Rng.create ~seed:7 () in
  List.iter
    (fun (firers, delay) ->
      let closed =
        Rmcast.Feedback.expected_naks_single_window ~firers ~window:0.1 ~delay
      in
      let simulated =
        Rmcast.Feedback.simulate_suppression rng ~slot_counts:[| firers |] ~slot:0.1 ~delay
          ~reps:20_000
      in
      Alcotest.(check bool)
        (Printf.sprintf "N=%d D=%g: closed %.3f vs sim %.3f" firers delay closed simulated)
        true
        (Float.abs (closed -. simulated) < 0.05 *. closed +. 0.05))
    [ (5, 0.01); (30, 0.025); (100, 0.005); (3, 0.09) ]

let test_feedback_slotting_beats_single_window () =
  let rng = Rng.create ~seed:8 () in
  (* 40 firers: all in one window vs spread by need over 4 slots. *)
  let one_window =
    Rmcast.Feedback.simulate_suppression rng ~slot_counts:[| 40 |] ~slot:0.1 ~delay:0.025
      ~reps:10_000
  in
  let slotted =
    Rmcast.Feedback.simulate_suppression rng ~slot_counts:[| 2; 8; 30 |] ~slot:0.1 ~delay:0.025
      ~reps:10_000
  in
  Alcotest.(check bool)
    (Printf.sprintf "slotted %.2f < flat %.2f" slotted one_window)
    true (slotted < one_window)

let test_feedback_predicts_np () =
  (* Predict NP's NAK volume per repair round and compare with the
     event-driven machine (R = 500, p = 0.02, k = 20). *)
  let receivers = 500 and p = 0.02 in
  let config = { Rmcast.Np.default_config with payload_size = 128 } in
  let slot_counts =
    Rmcast.Feedback.slot_counts ~k:config.Rmcast.Np.k ~a:0 ~p ~receivers
  in
  let predicted =
    Rmcast.Feedback.simulate_suppression (Rng.create ~seed:9 ()) ~slot_counts
      ~slot:config.Rmcast.Np.slot ~delay:config.Rmcast.Np.delay ~reps:4_000
  in
  let rng = Rng.create ~seed:10 () in
  let data = Array.init 400 (fun _ -> Bytes.init 128 (fun _ -> Char.chr (Rng.int rng 256))) in
  let network = Network.independent (Rng.split rng) ~receivers ~p in
  let report = Rmcast.Np.run ~config ~network ~rng:(Rng.split rng) ~data () in
  (* First-round NAKs per TG (20 TGs; later rounds have far fewer firers). *)
  let observed = float_of_int report.Rmcast.Np.naks_sent /. float_of_int report.Rmcast.Np.transmission_groups in
  Alcotest.(check bool)
    (Printf.sprintf "predicted %.2f vs observed %.2f NAKs/TG" predicted observed)
    true
    (observed < 2.5 *. predicted +. 1.0 && predicted < 2.5 *. observed +. 1.0)

let test_recommended_slot () =
  close "4x delay" 0.1 (Rmcast.Feedback.recommended_slot ~delay:0.025)

let suite =
  [
    Alcotest.test_case "tree structure" `Quick test_structure;
    Alcotest.test_case "leaf numbering" `Quick test_leaf_numbering;
    Alcotest.test_case "receiver ranges" `Quick test_ranges;
    Alcotest.test_case "paths and failures" `Quick test_paths;
    Alcotest.test_case "of_parents validation" `Quick test_of_parents_validation;
    Alcotest.test_case "random tree invariants" `Quick test_random_tree_invariants;
    Alcotest.test_case "single receiver tree" `Quick test_single_receiver_tree;
    Alcotest.test_case "uniform node loss" `Quick test_uniform_node_loss;
    Alcotest.test_case "network tree loss rate" `Quick test_network_tree_loss_rate;
    Alcotest.test_case "network tree iter = lost" `Quick test_network_tree_iter_matches_lost;
    Alcotest.test_case "protocols over random tree" `Quick test_network_tree_protocols_run;
    Alcotest.test_case "gilbert-elliott rate" `Quick test_gilbert_elliott_rate;
    Alcotest.test_case "gilbert-elliott burstiness" `Quick test_gilbert_elliott_burstier_than_bernoulli;
    Alcotest.test_case "gilbert-elliott validation" `Quick test_gilbert_elliott_validation;
    Alcotest.test_case "feedback closed-form edges" `Quick test_feedback_closed_form_edges;
    Alcotest.test_case "feedback closed form = MC" `Quick test_feedback_closed_form_matches_simulation;
    Alcotest.test_case "slotting reduces NAKs" `Quick test_feedback_slotting_beats_single_window;
    Alcotest.test_case "feedback predicts NP" `Quick test_feedback_predicts_np;
    Alcotest.test_case "recommended slot" `Quick test_recommended_slot;
  ]
