type t = { height : int }

let full_binary ~height =
  if height < 0 || height > 25 then invalid_arg "Topology.full_binary: height outside [0,25]";
  { height }

let height t = t.height
let receivers t = 1 lsl t.height
let node_count t = (1 lsl (t.height + 1)) - 1

let node_loss_probability t ~receiver_loss =
  if not (receiver_loss >= 0.0 && receiver_loss < 1.0) then
    invalid_arg "Topology.node_loss_probability: loss outside [0,1)";
  let levels = float_of_int (t.height + 1) in
  -.Float.expm1 (Float.log1p (-.receiver_loss) /. levels)

let node_level t v =
  if v < 1 || v > node_count t then invalid_arg "Topology.node_level: node out of range";
  let rec level acc v = if v = 1 then acc else level (acc + 1) (v / 2) in
  level 0 v

let leaf_to_receiver t leaf =
  let first_leaf = 1 lsl t.height in
  if leaf < first_leaf || leaf >= 2 * first_leaf then
    invalid_arg "Topology.leaf_to_receiver: not a leaf";
  leaf - first_leaf

let receiver_to_leaf t r =
  if r < 0 || r >= receivers t then invalid_arg "Topology.receiver_to_leaf: out of range";
  (1 lsl t.height) + r

let receiver_range t ~node =
  let level = node_level t node in
  let shift = t.height - level in
  let first_leaf = node lsl shift in
  let last_leaf = first_leaf + (1 lsl shift) - 1 in
  (leaf_to_receiver t first_leaf, leaf_to_receiver t last_leaf)

let path_has_failed_node t ~failed ~receiver =
  let rec walk v = v >= 1 && (failed v || walk (v / 2)) in
  walk (receiver_to_leaf t receiver)
