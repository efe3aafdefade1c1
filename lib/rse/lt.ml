module Gf = Rmc_gf.Gf

let kind = `Lt
let label = "Lt"
let caps = { Codec_intf.systematic = true; rateless = true }
let max_repair ~k = 0xFFFF - k

let check_block ~k ~h =
  if k < 1 then invalid_arg (label ^ ".create: k must be >= 1");
  if h < 0 then invalid_arg (label ^ ".create: h must be >= 0");
  if h > max_repair ~k then
    invalid_arg (label ^ ".create: k + h exceeds the 16-bit wire index space")

(* {1 Robust soliton degree distribution}

   Luby's distribution mu(d) proportional to rho(d) + tau(d) with the
   standard parameters c = 0.1, delta = 0.05: the ideal soliton rho
   keeps the expected ripple releasing one packet per reception, the
   tau spike at d* ~ k/R guards against the ripple dying out. *)

let soliton_c = 0.1
let soliton_delta = 0.05

type dist = { cdf : float array (* cdf.(d-1) = P(degree <= d), d = 1..k *) }

let make_dist k =
  let kf = float_of_int k in
  let r = max 1.0 (soliton_c *. log (kf /. soliton_delta) *. sqrt kf) in
  let spike = min k (max 1 (int_of_float (Float.round (kf /. r)))) in
  let weight d =
    let df = float_of_int d in
    let rho = if d = 1 then 1.0 /. kf else 1.0 /. (df *. (df -. 1.0)) in
    let tau =
      if d < spike then r /. (df *. kf)
      else if d = spike then r *. log (r /. soliton_delta) /. kf
      else 0.0
    in
    rho +. tau
  in
  let cdf = Array.make k 0.0 in
  let total = ref 0.0 in
  for d = 1 to k do
    total := !total +. weight d;
    cdf.(d - 1) <- !total
  done;
  let total = !total in
  Array.iteri (fun i v -> cdf.(i) <- v /. total) cdf;
  { cdf }

let sample_degree dist prng =
  let u = Codec_prng.unit_float prng in
  let cdf = dist.cdf in
  let n = Array.length cdf in
  (* First index with cdf >= u; binary search over the monotone array. *)
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo + 1

(* The neighbor set of repair packet [j]: degree from the robust soliton,
   then that many distinct data indices by partial Fisher-Yates — all
   from the (k, j)-seeded stream, so the decoder re-derives it from the
   wire index alone. *)
let neighbors_dist dist ~k ~j =
  let prng = Codec_prng.of_block ~k ~j ~salt:0 in
  let degree = sample_degree dist prng in
  let pool = Array.init k Fun.id in
  let chosen = ref [] in
  for i = 0 to degree - 1 do
    let pick = i + Codec_prng.below prng (k - i) in
    let v = pool.(pick) in
    pool.(pick) <- pool.(i);
    pool.(i) <- v;
    chosen := v :: !chosen
  done;
  !chosen

let neighbors ~k ~j = neighbors_dist (make_dist k) ~k ~j

(* Model hooks: the binary-matrix proxy (an LT packet is a GF(2)
   combination).  Optimistic for the peeling decoder, which can stall
   above the rank bound — the differential experiment measures the real
   overhead; these keep the abstract tier and the analysis layer
   closed-form. *)
let innovation_probability ~k ~rank =
  if rank >= k then 0.0 else 1.0 -. (2.0 ** float_of_int (rank - k))

let decode_failure_probability ~k ~received =
  if received < k then 1.0
  else begin
    let p_full = ref 1.0 in
    for i = 0 to k - 1 do
      p_full := !p_full *. (1.0 -. (2.0 ** float_of_int (i - received)))
    done;
    1.0 -. !p_full
  end

module Encoder = struct
  type t = { k : int; h : int; data : Bytes.t array; dist : dist }

  let create ~k ~h data =
    check_block ~k ~h;
    if Array.length data <> k then
      invalid_arg (label ^ ".Encoder.create: expected k data packets");
    let payload_len = Bytes.length data.(0) in
    Array.iter
      (fun p ->
        if Bytes.length p <> payload_len then
          invalid_arg (label ^ ".Encoder.create: unequal packet lengths"))
      data;
    { k; h; data; dist = make_dist k }

  let k e = e.k
  let h e = e.h

  let repair e j =
    if j < 0 || j >= e.h then invalid_arg (label ^ ".Encoder.repair: index out of range");
    match neighbors_dist e.dist ~k:e.k ~j with
    | [] -> assert false (* degree >= 1 by construction *)
    | first :: rest ->
      let out = Bytes.copy e.data.(first) in
      List.iter (fun i -> Gf.xor_into ~dst:out ~src:e.data.(i)) rest;
      out
end

module Decoder = struct
  (* Peeling decoder.  A coded packet whose unrecovered-neighbor list
     drops to one releases that data packet; each release ripples through
     the waiting lists of packets that reference it. *)
  type coded = { mutable neighbors : int list; payload : Bytes.t }

  type t = {
    k : int;
    h : int;
    dist : dist;
    data : Bytes.t option array; (* recovered value per data index *)
    direct : bool array; (* received verbatim (vs peeled) *)
    waiting : coded list array; (* per data index: coded packets naming it *)
    mutable recovered : int;
    mutable accepted : int;
    mutable payload_len : int; (* -1 until the first add *)
  }

  let create ~k ~h =
    check_block ~k ~h;
    {
      k;
      h;
      dist = make_dist k;
      data = Array.make k None;
      direct = Array.make k false;
      waiting = Array.make k [];
      recovered = 0;
      accepted = 0;
      payload_len = -1;
    }

  let received d = d.accepted
  let needed d = d.k - d.recovered
  let complete d = d.recovered >= d.k

  let has_data d index =
    if index < 0 || index >= d.k then
      invalid_arg (label ^ ".Decoder.has_data: index out of range");
    d.direct.(index)

  let missing_data d = List.filter (fun j -> not d.direct.(j)) (List.init d.k Fun.id)

  (* Install [index := value] and ripple.  A coded packet reaching degree
     one has its neighbor list cleared {e before} its payload is queued as
     the recovered value — it sits in the waiting list of that very index,
     and without the clear (and the [List.mem] guard) the ripple would XOR
     the recovered data into its own buffer, zeroing it. *)
  let recover d index value =
    let pending = Queue.create () in
    Queue.add (index, value) pending;
    while not (Queue.is_empty pending) do
      let l, y = Queue.pop pending in
      if d.data.(l) = None then begin
        d.data.(l) <- Some y;
        d.recovered <- d.recovered + 1;
        let waiters = d.waiting.(l) in
        d.waiting.(l) <- [];
        List.iter
          (fun coded ->
            if List.mem l coded.neighbors then begin
              coded.neighbors <- List.filter (fun i -> i <> l) coded.neighbors;
              Gf.xor_into ~dst:coded.payload ~src:y;
              match coded.neighbors with
              | [ last ] ->
                coded.neighbors <- [];
                if d.data.(last) = None then Queue.add (last, coded.payload) pending
              | _ -> ()
            end)
          waiters
      end
    done

  let add d ~index payload =
    if index < 0 || index >= d.k + d.h then
      invalid_arg (label ^ ".Decoder.add: index out of range");
    if d.payload_len < 0 then d.payload_len <- Bytes.length payload
    else if Bytes.length payload <> d.payload_len then
      invalid_arg (label ^ ".Decoder.add: unequal payload lengths");
    if index < d.k then begin
      let fresh = d.data.(index) = None in
      d.direct.(index) <- true;
      if fresh then begin
        d.accepted <- d.accepted + 1;
        recover d index payload;
        true
      end
      else false (* duplicate, or already peeled from coded packets *)
    end
    else begin
      let ns = neighbors_dist d.dist ~k:d.k ~j:(index - d.k) in
      let remaining = List.filter (fun i -> d.data.(i) = None) ns in
      match remaining with
      | [] -> false (* every neighbor already known: nothing new *)
      | _ ->
        (* Copy, then reduce against the already-recovered neighbors. *)
        let y = Bytes.copy payload in
        List.iter
          (fun i ->
            match d.data.(i) with
            | Some v -> Gf.xor_into ~dst:y ~src:v
            | None -> ())
          ns;
        d.accepted <- d.accepted + 1;
        (match remaining with
        | [ last ] -> recover d last y (* the packet is the missing value *)
        | _ ->
          let coded = { neighbors = remaining; payload = y } in
          List.iter (fun i -> d.waiting.(i) <- coded :: d.waiting.(i)) remaining);
        true
    end

  let decode d =
    if not (complete d) then failwith (label ^ ".Decoder.decode: not enough packets");
    Array.init d.k (fun i -> Option.get d.data.(i))
end
