(* Metric names, summary statistics and the one-line JSON result. *)

type t = { name : string; unit_ : string; value : float }

(* A name is 1-64 letters, digits, '_', '.' and '-', starting with a
   letter or digit. *)
let valid_name name =
  let ok_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length name in
  n >= 1 && n <= 64
  && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all ok_char name

let make name unit_ value =
  if not (valid_name name) then invalid_arg ("Metric.make: bad metric name " ^ name);
  { name; unit_; value }

let median = function
  | [] -> invalid_arg "Metric.median: no samples"
  | samples ->
    let a = Array.of_list samples in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Failure rate over receiver-transfers, Jeffreys-smoothed so that a
   clean run still reads a positive rate bounded by its sample size:
   (failed + 1/2) / (attempted + 1). *)
let failure_rate ~attempted ~failed =
  (float_of_int failed +. 0.5) /. (float_of_int attempted +. 1.0)

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else invalid_arg "Metric: non-finite value"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let result_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
          (json_float m.value) (json_string m.unit_))
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " fields)
