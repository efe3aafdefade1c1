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

let log_product_cdf t cdf =
  List.fold_left
    (fun acc (p, count) ->
      let c = cdf p in
      if c < 0.0 || c > 1.0 then invalid_arg "Receivers.log_product_cdf: CDF outside [0,1]";
      if c = 0.0 then neg_infinity
      else acc +. (float_of_int count *. log c))
    0.0 t.classes

let product_survival t cdf =
  let log_prod = log_product_cdf t cdf in
  if log_prod = neg_infinity then 1.0 else -.Float.expm1 log_prod
