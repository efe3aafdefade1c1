module Rng = Rmc_numerics.Rng
module Parallel = Rmc_rse.Parallel

let log_spaced_ints ~from ~upto ~per_decade =
  if from < 1 || upto < from then invalid_arg "Sweep.log_spaced_ints: bad range";
  if per_decade < 1 then invalid_arg "Sweep.log_spaced_ints: per_decade must be >= 1";
  let step = 10.0 ** (1.0 /. float_of_int per_decade) in
  let rec collect x acc =
    if x > float_of_int upto then acc
    else collect (x *. step) (int_of_float (Float.round x) :: acc)
  in
  let points = collect (float_of_int from) [] in
  List.sort_uniq compare (upto :: points)

let log_spaced_floats ~from ~upto ~per_decade =
  if from <= 0.0 || upto < from then invalid_arg "Sweep.log_spaced_floats: bad range";
  if per_decade < 1 then invalid_arg "Sweep.log_spaced_floats: per_decade must be >= 1";
  let step = 10.0 ** (1.0 /. float_of_int per_decade) in
  let rec collect x acc = if x > upto *. 1.0000001 then acc else collect (x *. step) (x :: acc) in
  let points = collect from [] in
  let points = if List.exists (fun x -> Float.abs (x -. upto) < 1e-9 *. upto) points then points else upto :: points in
  List.rev points

let powers_of_two ~max_exponent =
  if max_exponent < 0 then invalid_arg "Sweep.powers_of_two: negative exponent";
  List.init (max_exponent + 1) (fun d -> 1 lsl d)

(* Domain-parallel grid execution.  Every cell gets a seed derived from
   (base seed, cell coordinates) alone — never from the schedule — and
   results land positionally, so run_cells is a pure function of
   (cells, seed): jobs = 1 and jobs = N produce identical arrays. *)

let cell_seed ~seed coords = Rng.derive_seed seed coords

let run_cells ?jobs ~seed ?(coords = fun i _ -> [| i |]) ~f cells =
  let n = Array.length cells in
  let seeds = Array.init n (fun i -> cell_seed ~seed (coords i cells.(i))) in
  let jobs =
    match jobs with Some j -> max 1 j | None -> Domain.recommended_domain_count ()
  in
  let eval i = f ~seed:seeds.(i) cells.(i) in
  if jobs = 1 || n <= 1 then Array.init n eval
  else Parallel.map ~pool:(Parallel.pool_sized jobs) n eval

type series = { label : string; points : (float * float) list }

let series ~label ~xs ~f = { label; points = List.map f xs }

let series_cells ?jobs ~seed ~label ~xs ~f () =
  let points = run_cells ?jobs ~seed ~f (Array.of_list xs) |> Array.to_list in
  { label; points }

let to_csv all =
  let buffer = Buffer.create 4096 in
  Buffer.add_string buffer "series,x,y\n";
  List.iter
    (fun { label; points } ->
      let safe_label =
        if String.exists (fun c -> c = ',' || c = '"' || c = '\n') label then
          "\"" ^ String.concat "\"\"" (String.split_on_char '"' label) ^ "\""
        else label
      in
      List.iter
        (fun (x, y) ->
          Buffer.add_string buffer (Printf.sprintf "%s,%.10g,%.10g\n" safe_label x y))
        points)
    all;
  Buffer.contents buffer

let pp_table ppf all =
  let xs =
    List.sort_uniq compare (List.concat_map (fun s -> List.map fst s.points) all)
  in
  Format.fprintf ppf "@[<v>%-12s" "x";
  List.iter (fun s -> Format.fprintf ppf " %16s" s.label) all;
  Format.pp_print_cut ppf ();
  List.iter
    (fun x ->
      Format.fprintf ppf "%-12.6g" x;
      List.iter
        (fun s ->
          match List.assoc_opt x s.points with
          | Some y -> Format.fprintf ppf " %16.6g" y
          | None -> Format.fprintf ppf " %16s" "-")
        all;
      Format.pp_print_cut ppf ())
    xs;
  Format.fprintf ppf "@]"
