module Series = Rmc_numerics.Series

type t = { classes : (float * int) list; size : int }

let validate_class (p, count) =
  if not (p >= 0.0 && p < 1.0) then invalid_arg "Receivers: loss probability outside [0,1)";
  if count < 0 then invalid_arg "Receivers: negative class count"

let classes cs =
  List.iter validate_class cs;
  let cs = List.filter (fun (_, count) -> count > 0) cs in
  let size = List.fold_left (fun acc (_, count) -> acc + count) 0 cs in
  if size = 0 then invalid_arg "Receivers: empty population";
  { classes = cs; size }

let homogeneous ~p ~count = classes [ (p, count) ]

let two_class ~p_low ~p_high ~high_fraction ~count =
  if not (high_fraction >= 0.0 && high_fraction <= 1.0) then
    invalid_arg "Receivers.two_class: fraction outside [0,1]";
  let high = int_of_float (Float.round (high_fraction *. float_of_int count)) in
  let high = min count high in
  classes [ (p_low, count - high); (p_high, high) ]

let size t = t.size
let to_classes t = t.classes
let max_p t = List.fold_left (fun acc (p, _) -> Float.max acc p) 0.0 t.classes

(* ln (prod_r cdf_r m), folded in class order; [cdf p] is applied once
   per class.  A class at 0 makes the product 0 without the rest. *)
let log_product_cdf t cdf =
  let per_class = List.map (fun (p, count) -> (float_of_int count, cdf p)) t.classes in
  let rec fold acc m = function
    | [] -> acc
    | (count, cdf) :: rest ->
      let c = cdf m in
      if c < 0.0 || c > 1.0 then invalid_arg "Receivers.group_cdf: CDF outside [0,1]";
      if c = 0.0 then neg_infinity else fold (acc +. (count *. log c)) m rest
  in
  fun m -> fold 0.0 m per_class

let group_cdf t cdf =
  let log_cdf = log_product_cdf t cdf in
  fun m -> exp (log_cdf m)

let expected_max t cdf =
  let log_cdf = log_product_cdf t cdf in
  Series.expectation_from_survival (fun m -> 1.0 -. exp (log_cdf m))
