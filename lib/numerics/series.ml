(* Far below the 2-3 significant digits visible on the paper's plots. *)
let tolerance = 1e-12

exception Did_not_converge of { terms : int; partial : float }

let sum_survival ?(max_terms = 10_000_000) s =
  let rec loop i acc =
    if i >= max_terms then raise (Did_not_converge { terms = i; partial = acc })
    else begin
      let term = s i in
      if term < 0.0 then invalid_arg "Series.sum_survival: negative term";
      let acc = acc +. term in
      if term <= tolerance *. (1.0 +. acc) then acc else loop (i + 1) acc
    end
  in
  loop 0 0.0

let expectation_from_survival = sum_survival
