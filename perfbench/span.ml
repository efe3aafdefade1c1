(* In-memory span log and self-time accounting.

   A span is one timed call into a layer: a name, a start and stop on the
   monotonic clock (nanoseconds), and the span that caused it.  Spans are
   appended to a list while the benchmark runs and written out only when
   it ends, so recording one costs a clock read and an allocation, never
   I/O. *)

type span = { id : int; parent : int option; name : string; start_ns : int64; stop_ns : int64 }

type t = { mutable next_id : int; mutable rev : span list }

let now_ns () = Monotonic_clock.now ()
let create () = { next_id = 0; rev = [] }

let add t ?parent ~name ~start_ns ~stop_ns () =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.rev <- { id; parent; name; start_ns; stop_ns } :: t.rev;
  id

(* [enclose t name f] runs [f id] inside a span [id] that the spans [f]
   records with [~parent:id] nest under. *)
let enclose t ?parent name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let start_ns = now_ns () in
  let result = f id in
  t.rev <- { id; parent; name; start_ns; stop_ns = now_ns () } :: t.rev;
  result

let time t ?parent name f =
  let start_ns = now_ns () in
  let result = f () in
  ignore (add t ?parent ~name ~start_ns ~stop_ns:(now_ns ()) ());
  result

let spans t = List.rev t.rev

(* Length of the union of [intervals] (sorted by start), each clipped to
   [lo, hi].  Overlapping children are counted once. *)
let covered_ns ~lo ~hi intervals =
  let rec go acc cur_lo cur_hi = function
    | [] -> acc + max 0 (cur_hi - cur_lo)
    | (a, b) :: rest ->
      let a = max lo a and b = min hi b in
      if b <= a then go acc cur_lo cur_hi rest
      else if a <= cur_hi then go acc cur_lo (max cur_hi b) rest
      else go (acc + max 0 (cur_hi - cur_lo)) a b rest
  in
  go 0 lo lo intervals

(* Self time of every span: its duration minus the part of its interval
   that its direct children cover. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p ->
        Hashtbl.replace children p
          ((Int64.to_int s.start_ns, Int64.to_int s.stop_ns)
          :: Option.value ~default:[] (Hashtbl.find_opt children p))
      | None -> ())
    spans;
  List.map
    (fun s ->
      let lo = Int64.to_int s.start_ns and hi = Int64.to_int s.stop_ns in
      let kids =
        List.sort compare (Option.value ~default:[] (Hashtbl.find_opt children s.id))
      in
      (s, max 0 (hi - lo) - covered_ns ~lo ~hi kids))
    spans

(* Total self time (ns) and call count per span name. *)
let self_by_name spans =
  let table = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let total, calls = Option.value ~default:(0, 0) (Hashtbl.find_opt table s.name) in
      Hashtbl.replace table s.name (total + self, calls + 1))
    (self_times spans);
  table

let self_s table name =
  match Hashtbl.find_opt table name with
  | Some (ns, _) -> float_of_int ns /. 1e9
  | None -> 0.0

let calls table name =
  match Hashtbl.find_opt table name with Some (_, n) -> n | None -> 0

let write ~path t =
  let oc = open_out path in
  output_string oc "id\tparent\tname\tstart_ns\tstop_ns\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%s\t%s\t%Ld\t%Ld\n" s.id
        (match s.parent with Some p -> string_of_int p | None -> "-")
        s.name s.start_ns s.stop_ns)
    (spans t);
  close_out oc
