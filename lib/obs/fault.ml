module Rng = Rmc_numerics.Rng
module Loss = Rmc_sim.Loss

type drop =
  | No_drop
  | Drop_bernoulli of float
  | Drop_burst of { p : float; mean_burst : float; rate : float }

type spec = {
  drop : drop;
  duplicate : float;
  reorder : float;
  delay : (float * float) option;
  corrupt : float;
  seed : int;
}

let none =
  { drop = No_drop; duplicate = 0.0; reorder = 0.0; delay = None; corrupt = 0.0; seed = 0 }

let validate_spec spec =
  let probability what p =
    if p < 0.0 || p > 1.0 then
      invalid_arg (Printf.sprintf "Fault: %s probability %g outside [0, 1]" what p)
  in
  (match spec.drop with
  | No_drop -> ()
  | Drop_bernoulli p ->
    if p < 0.0 || p >= 1.0 then invalid_arg "Fault: drop probability outside [0, 1)"
  | Drop_burst { p; mean_burst; rate } ->
    if p <= 0.0 || p >= 1.0 then invalid_arg "Fault: burst drop probability outside (0, 1)";
    if mean_burst <= 1.0 then invalid_arg "Fault: mean burst must exceed 1 datagram";
    if rate <= 0.0 then invalid_arg "Fault: burst rate must be positive");
  probability "duplicate" spec.duplicate;
  probability "reorder" spec.reorder;
  probability "corrupt" spec.corrupt;
  match spec.delay with
  | None -> ()
  | Some (lo, hi) ->
    if lo < 0.0 || hi < lo then invalid_arg "Fault: delay range must satisfy 0 <= min <= max"

(* --- textual specs ---------------------------------------------------- *)

let spec_to_string spec =
  let parts = ref [] in
  let add fmt = Printf.ksprintf (fun s -> parts := s :: !parts) fmt in
  (match spec.drop with
  | No_drop -> ()
  | Drop_bernoulli p -> add "drop=%g" p
  | Drop_burst { p; mean_burst; rate } -> add "drop=burst:%g:%g:%g" p mean_burst rate);
  if spec.duplicate > 0.0 then add "dup=%g" spec.duplicate;
  if spec.reorder > 0.0 then add "reorder=%g" spec.reorder;
  (match spec.delay with
  | Some (lo, hi) -> add "delay=%g:%g" lo hi
  | None -> ());
  if spec.corrupt > 0.0 then add "corrupt=%g" spec.corrupt;
  add "seed=%d" spec.seed;
  String.concat "," (List.rev !parts)

let spec_of_string s =
  let ( let* ) r f = Result.bind r f in
  let float_field key v =
    match float_of_string_opt v with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "%s: not a number: %S" key v)
  in
  let probability key v =
    let* f = float_field key v in
    if f < 0.0 || f > 1.0 then Error (Printf.sprintf "%s: %g outside [0, 1]" key f)
    else Ok f
  in
  let parse_drop v =
    match String.split_on_char ':' v with
    | [ p ] ->
      let* p = probability "drop" p in
      Ok (if p = 0.0 then No_drop else Drop_bernoulli p)
    | [ "burst"; p; mean_burst; rate ] ->
      let* p = probability "drop" p in
      let* mean_burst = float_field "drop burst length" mean_burst in
      let* rate = float_field "drop burst rate" rate in
      Ok (Drop_burst { p; mean_burst; rate })
    | _ -> Error (Printf.sprintf "drop: expected P or burst:P:LEN:RATE, got %S" v)
  in
  let parse_delay v =
    match String.split_on_char ':' v with
    | [ d ] ->
      let* d = float_field "delay" d in
      Ok (Some (d, d))
    | [ lo; hi ] ->
      let* lo = float_field "delay min" lo in
      let* hi = float_field "delay max" hi in
      Ok (Some (lo, hi))
    | _ -> Error (Printf.sprintf "delay: expected D or MIN:MAX, got %S" v)
  in
  let field spec segment =
    match String.index_opt segment '=' with
    | None -> Error (Printf.sprintf "expected key=value, got %S" segment)
    | Some i ->
      let key = String.sub segment 0 i in
      let v = String.sub segment (i + 1) (String.length segment - i - 1) in
      (match key with
      | "drop" ->
        let* drop = parse_drop v in
        Ok { spec with drop }
      | "dup" | "duplicate" ->
        let* duplicate = probability key v in
        Ok { spec with duplicate }
      | "reorder" ->
        let* reorder = probability key v in
        Ok { spec with reorder }
      | "delay" ->
        let* delay = parse_delay v in
        Ok { spec with delay }
      | "corrupt" ->
        let* corrupt = probability key v in
        Ok { spec with corrupt }
      | "seed" ->
        (match int_of_string_opt v with
        | Some seed -> Ok { spec with seed }
        | None -> Error (Printf.sprintf "seed: not an integer: %S" v))
      | other -> Error (Printf.sprintf "unknown fault key %S" other))
  in
  let segments =
    String.split_on_char ',' (String.trim s)
    |> List.map String.trim
    |> List.filter (fun seg -> seg <> "")
  in
  let* spec = List.fold_left (fun acc seg -> Result.bind acc (fun sp -> field sp seg)) (Ok none) segments in
  match validate_spec spec with
  | () -> Ok spec
  | exception Invalid_argument msg -> Error msg

(* --- the shim ---------------------------------------------------------- *)

type t = {
  spec : spec;
  rng : Rng.t;
  loss : Loss.t option;
  trace : Trace.t option;
  c_injected : Metrics.counter;
  c_dropped : Metrics.counter;
  c_duplicated : Metrics.counter;
  c_reordered : Metrics.counter;
  c_delayed : Metrics.counter;
  c_corrupted : Metrics.counter;
  c_corrupt_copies : Metrics.counter;
  c_delivered : Metrics.counter;
  mutable last_now : float;
  mutable held : (Bytes.t * bool) option;  (* packet, is-a-corrupt-copy *)
  mutable held_gen : int;
}

let hold_flush_after = 0.030

let create ?metrics ?trace spec =
  validate_spec spec;
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let rng = Rng.create ~seed:spec.seed () in
  let loss =
    match spec.drop with
    | No_drop -> None
    | Drop_bernoulli p -> Some (Loss.bernoulli (Rng.split rng) ~p)
    | Drop_burst { p; mean_burst; rate } ->
      Some (Loss.markov2 (Rng.split rng) ~p ~mean_burst ~send_rate:rate)
  in
  {
    spec;
    rng;
    loss;
    trace;
    c_injected = Metrics.counter metrics "fault.injected";
    c_dropped = Metrics.counter metrics "fault.dropped";
    c_duplicated = Metrics.counter metrics "fault.duplicated";
    c_reordered = Metrics.counter metrics "fault.reordered";
    c_delayed = Metrics.counter metrics "fault.delayed";
    c_corrupted = Metrics.counter metrics "fault.corrupted";
    c_corrupt_copies = Metrics.counter metrics "fault.corrupt_copies";
    c_delivered = Metrics.counter metrics "fault.delivered";
    last_now = neg_infinity;
    held = None;
    held_gen = 0;
  }

let spec t = t.spec

let note t ~now name =
  match t.trace with None -> () | Some trace -> Trace.record trace ~virt:now name

let corrupt_copy t packet =
  let pkt = Bytes.copy packet in
  let flips = 1 + Rng.int t.rng 3 in
  for _ = 1 to flips do
    let pos = Rng.int t.rng (Bytes.length pkt) in
    Bytes.set_uint8 pkt pos (Bytes.get_uint8 pkt pos lxor (1 + Rng.int t.rng 255))
  done;
  pkt

let emit t ~send ~corrupted packet =
  Metrics.incr t.c_delivered;
  if corrupted then Metrics.incr t.c_corrupt_copies;
  send packet

let deliver t ~defer ~send ~corrupted packet =
  match t.spec.delay with
  | Some (lo, hi) when hi > 0.0 ->
    Metrics.incr t.c_delayed;
    let d = lo +. (Rng.float t.rng *. (hi -. lo)) in
    defer d (fun () -> emit t ~send ~corrupted packet)
  | Some _ | None -> emit t ~send ~corrupted packet

let release_held t ~defer ~send =
  match t.held with
  | None -> ()
  | Some (packet, corrupted) ->
    t.held <- None;
    t.held_gen <- t.held_gen + 1;
    deliver t ~defer ~send ~corrupted packet

let hold t ~defer ~send ~corrupted packet =
  t.held <- Some (packet, corrupted);
  t.held_gen <- t.held_gen + 1;
  let gen = t.held_gen in
  (* If nothing ever overtakes it, flush so the datagram is late, not lost. *)
  defer hold_flush_after (fun () -> if t.held_gen = gen then release_held t ~defer ~send)

let apply t ~now ~defer ~send packet =
  Metrics.incr t.c_injected;
  (* Wall clocks can step backwards; the loss process cannot. *)
  t.last_now <- Float.max t.last_now now;
  let dropped = match t.loss with Some l -> Loss.lost l t.last_now | None -> false in
  if dropped then begin
    Metrics.incr t.c_dropped;
    note t ~now "fault.drop"
  end
  else begin
    let packet, corrupted =
      if t.spec.corrupt > 0.0 && Bytes.length packet > 0
         && Rng.bernoulli t.rng t.spec.corrupt
      then begin
        Metrics.incr t.c_corrupted;
        note t ~now "fault.corrupt";
        (corrupt_copy t packet, true)
      end
      else (packet, false)
    in
    let dup = t.spec.duplicate > 0.0 && Rng.bernoulli t.rng t.spec.duplicate in
    if dup then begin
      Metrics.incr t.c_duplicated;
      note t ~now "fault.duplicate"
    end;
    let want_hold =
      t.spec.reorder > 0.0 && t.held = None && Rng.bernoulli t.rng t.spec.reorder
    in
    if want_hold && not dup then begin
      Metrics.incr t.c_reordered;
      note t ~now "fault.reorder";
      hold t ~defer ~send ~corrupted packet
    end
    else begin
      deliver t ~defer ~send ~corrupted packet;
      if dup then deliver t ~defer ~send ~corrupted packet;
      release_held t ~defer ~send
    end
  end

type stats = {
  injected : int;
  dropped : int;
  duplicated : int;
  reordered : int;
  delayed : int;
  corrupted : int;
  corrupt_copies : int;
  delivered : int;
}

let stats t =
  {
    injected = Metrics.count t.c_injected;
    dropped = Metrics.count t.c_dropped;
    duplicated = Metrics.count t.c_duplicated;
    reordered = Metrics.count t.c_reordered;
    delayed = Metrics.count t.c_delayed;
    corrupted = Metrics.count t.c_corrupted;
    corrupt_copies = Metrics.count t.c_corrupt_copies;
    delivered = Metrics.count t.c_delivered;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "injected %d, dropped %d, duplicated %d, reordered %d, delayed %d, corrupted %d (%d copies sent), delivered %d"
    s.injected s.dropped s.duplicated s.reordered s.delayed s.corrupted s.corrupt_copies
    s.delivered
