(* Shared machinery of the systematic block codecs (Rse, Rse_poly, Cauchy):
   given an n x k generator whose top k x k block is the identity, encoding
   is a matrix-vector product over whole packets and decoding solves the
   k x k system formed by the generator rows of any k received packets.
   Internal module — each public codec wraps it with its own construction
   and error-message prefix.

   Encoding and decoding both come down to one loop, [accumulate]: for each
   output row and each source packet with a non-zero coefficient, one
   [Gf.mul_add_into_symbols] call over the whole packet (the SIMD GF(2^8)
   kernel, or the GF(2^16) symbol loop).  Nothing is precomputed per
   coefficient, so a codec holds no tables beyond its generator; a decode
   keeps only the inverse rows, memoized per loss pattern. *)

module Gf = Rmc_gf.Gf
module Gmatrix = Rmc_matrix.Gmatrix

(* Reusable decode scratch: index selection arrays, taken and returned with
   a single atomic exchange so concurrent decodes on the same codec simply
   fall back to fresh allocation instead of racing. *)
type scratch = {
  seen : bool array; (* n *)
  chosen_idx : int array; (* k *)
  chosen_payload : Bytes.t array; (* k *)
}

(* Everything a decode needs beyond packet selection, memoized per loss
   pattern: the reconstruction rows of the inverted k x k system.
   Steady-state loss patterns repeat, so most decodes skip the
   Gauss-Jordan. *)
type solution = {
  missing_js : int array; (* data indices to reconstruct, increasing *)
  rows : int array array; (* inverse row per missing index *)
}

type t = {
  label : string;
  field : Gf.t;
  k : int;
  h : int;
  generator : Gmatrix.t; (* n x k, top block identity *)
  parity_rows : int array array; (* h x k: generator rows k..n-1 *)
  scratch : scratch option Atomic.t;
  inverse_cache : (int array, solution) Hashtbl.t;
      (* chosen codeword indices -> reconstruction solution *)
  cache_mutex : Mutex.t;
}

let make ~label ~field ~k ~h ~generator =
  assert (Gmatrix.rows generator = k + h && Gmatrix.cols generator = k);
  let parity_rows = Array.init h (fun j -> Gmatrix.row generator (k + j)) in
  {
    label;
    field;
    k;
    h;
    generator;
    parity_rows;
    scratch = Atomic.make None;
    inverse_cache = Hashtbl.create 16;
    cache_mutex = Mutex.create ();
  }

let check_dimensions ~label ~field ~k ~h =
  (* Reject fields without vector kernels up front. *)
  ignore (Gf.symbol_bytes field);
  if k < 1 then invalid_arg (label ^ ".create: k must be >= 1");
  if h < 0 then invalid_arg (label ^ ".create: h must be >= 0");
  if k + h > Gf.size field - 1 then
    invalid_arg (label ^ ".create: k + h exceeds 2^m - 1 codeword positions")

(* Construction memo: building a codec inverts a k x k system to
   systematise the generator, which protocol layers used to pay on every
   transfer.  Codecs are immutable from the caller's perspective and all
   their mutable internals are domain-safe, so sharing one instance per
   (label, field, k, h) is sound. *)
let memo : (string * int * int * int, t) Hashtbl.t = Hashtbl.create 32
let memo_mutex = Mutex.create ()
let memo_capacity = 512

let memo_create ~label ~field ~k ~h build =
  let key = (label, Gf.m field, k, h) in
  Mutex.lock memo_mutex;
  match Hashtbl.find_opt memo key with
  | Some t ->
    Mutex.unlock memo_mutex;
    t
  | None -> (
    match build () with
    | t ->
      if Hashtbl.length memo >= memo_capacity then Hashtbl.reset memo;
      Hashtbl.replace memo key t;
      Mutex.unlock memo_mutex;
      t
    | exception e ->
      Mutex.unlock memo_mutex;
      raise e)

let label t = t.label
let field t = t.field
let k t = t.k
let h t = t.h
let n t = t.k + t.h
let generator_row t e = Gmatrix.row t.generator e

let check_payloads t operation packets =
  let count = Array.length packets in
  if count = 0 then invalid_arg (Printf.sprintf "%s.%s: no packets" t.label operation);
  let len = Bytes.length packets.(0) in
  Array.iter
    (fun p ->
      if Bytes.length p <> len then
        invalid_arg (Printf.sprintf "%s.%s: unequal packet lengths" t.label operation))
    packets;
  len

(* {1 The accumulation loop}

   Adds, for every output r, [sum_c rows.(r).(c) * srcs.(c)] into
   [dsts.(r)], one (row, source) pair per kernel call. *)

let accumulate t ~rows ~srcs ~dsts =
  for r = 0 to Array.length dsts - 1 do
    let row = rows.(r) and dst = dsts.(r) in
    for c = 0 to Array.length srcs - 1 do
      let coeff = row.(c) in
      if coeff <> 0 then Gf.mul_add_into_symbols t.field ~dst ~src:srcs.(c) ~coeff
    done
  done

(* {1 Encoding} *)

let encode_parity t data j =
  if Array.length data <> t.k then
    invalid_arg (t.label ^ ".encode_parity: expected k data packets");
  if j < 0 || j >= t.h then invalid_arg (t.label ^ ".encode_parity: parity index out of range");
  let len = check_payloads t "encode_parity" data in
  let parity = Bytes.make len '\000' in
  accumulate t ~rows:[| t.parity_rows.(j) |] ~srcs:data ~dsts:[| parity |];
  parity

let encode t data =
  if t.h = 0 then [||]
  else begin
    if Array.length data <> t.k then
      invalid_arg (t.label ^ ".encode_parity: expected k data packets");
    let len = check_payloads t "encode_parity" data in
    let parity = Array.init t.h (fun _ -> Bytes.make len '\000') in
    accumulate t ~rows:t.parity_rows ~srcs:data ~dsts:parity;
    parity
  end

(* {1 Decoding} *)

let take_scratch t =
  match Atomic.exchange t.scratch None with
  | Some s -> s
  | None ->
    {
      seen = Array.make (n t) false;
      chosen_idx = Array.make t.k 0;
      chosen_payload = Array.make t.k Bytes.empty;
    }

let release_scratch t s =
  Array.fill s.seen 0 (Array.length s.seen) false;
  (* Drop payload references so the scratch does not pin caller buffers
     beyond the call. *)
  Array.fill s.chosen_payload 0 t.k Bytes.empty;
  Atomic.set t.scratch (Some s)

(* The reconstruction solution for a given selection of codeword indices,
   memoized per loss pattern: which data indices are missing (derivable
   from the selection alone) and their rows of the inverted system. *)
let solve t chosen_idx =
  Mutex.lock t.cache_mutex;
  let cached = Hashtbl.find_opt t.inverse_cache chosen_idx in
  Mutex.unlock t.cache_mutex;
  match cached with
  | Some solution -> solution
  | None ->
    let system = Gmatrix.submatrix_rows t.generator chosen_idx in
    let inverse = Gmatrix.invert system in
    let present = Array.make t.k false in
    Array.iter (fun index -> if index < t.k then present.(index) <- true) chosen_idx;
    let missing_js =
      Array.of_list (List.filter (fun j -> not present.(j)) (List.init t.k Fun.id))
    in
    let rows = Array.map (fun j -> Gmatrix.row inverse j) missing_js in
    let solution = { missing_js; rows } in
    let key = Array.copy chosen_idx in
    Mutex.lock t.cache_mutex;
    if Hashtbl.length t.inverse_cache >= 128 then Hashtbl.reset t.inverse_cache;
    Hashtbl.replace t.inverse_cache key solution;
    Mutex.unlock t.cache_mutex;
    solution

let decode t received =
  if Array.length received < t.k then
    invalid_arg (t.label ^ ".decode: fewer than k packets received");
  ignore (check_payloads t "decode" (Array.map snd received));
  let s = take_scratch t in
  let fail e =
    release_scratch t s;
    invalid_arg (t.label ^ e)
  in
  let total = n t in
  Array.iter
    (fun (index, _) ->
      if index < 0 || index >= total then fail ".decode: index out of range";
      if s.seen.(index) then fail ".decode: duplicate packet index";
      s.seen.(index) <- true)
    received;
  (* Prefer received data packets (their rows are unit vectors), then fill
     with parities in arrival order. *)
  let selected = ref 0 in
  let push (index, payload) =
    if !selected < t.k then begin
      s.chosen_idx.(!selected) <- index;
      s.chosen_payload.(!selected) <- payload;
      incr selected
    end
  in
  Array.iter (fun ((index, _) as entry) -> if index < t.k then push entry) received;
  Array.iter (fun ((index, _) as entry) -> if index >= t.k then push entry) received;
  assert (!selected = t.k);
  (* Present data indices alias the caller's payloads.  Data packets are
     selected first, so the selection holds a parity (and some data index
     is missing) exactly when its last slot does; each missing index gets a
     fresh zeroed buffer, accumulated from the selected payloads. *)
  let outputs = Array.make t.k Bytes.empty in
  for c = 0 to t.k - 1 do
    let index = s.chosen_idx.(c) in
    if index < t.k then outputs.(index) <- s.chosen_payload.(c)
  done;
  if s.chosen_idx.(t.k - 1) >= t.k then begin
    let solution = solve t s.chosen_idx in
    let payload_len = Bytes.length s.chosen_payload.(0) in
    let dsts =
      Array.map
        (fun j ->
          let dst = Bytes.make payload_len '\000' in
          outputs.(j) <- dst;
          dst)
        solution.missing_js
    in
    accumulate t ~rows:solution.rows ~srcs:s.chosen_payload ~dsts
  end;
  release_scratch t s;
  outputs

let decode_data_loss t ~data ~parity =
  if Array.length data <> t.k then
    invalid_arg (t.label ^ ".decode_data_loss: expected k data slots");
  let received = ref [] in
  Array.iteri
    (fun index slot ->
      match slot with Some payload -> received := (index, payload) :: !received | None -> ())
    data;
  List.iter
    (fun (j, payload) ->
      if j < 0 || j >= t.h then
        invalid_arg (t.label ^ ".decode_data_loss: parity index out of range");
      received := (t.k + j, payload) :: !received)
    parity;
  decode t (Array.of_list (List.rev !received))

let is_mds_subset t indices =
  if Array.length indices <> t.k then
    invalid_arg (t.label ^ ".is_mds_subset: expected k indices");
  let system = Gmatrix.submatrix_rows t.generator indices in
  match Gmatrix.invert system with _ -> true | exception Failure _ -> false

(* {1 The codec-seam adapter}

   Lifts any systematic block codec built on this core into the
   [Codec_intf.CODEC] seam.  The encoder binds a codec instance to one
   block's data and serves parity rows; the decoder is slot bookkeeping
   (one slot per codeword position) in front of [decode] — every packet
   with an unseen index is innovative, which is exactly the MDS
   property, so the model hooks are the trivial ones. *)

module Block_codec (M : sig
  val kind : Codec_intf.kind
  val label : string
  val create : k:int -> h:int -> t
end) : Codec_intf.CODEC = struct
  let core_k = k
  let core_h = h
  let kind = M.kind
  let label = M.label
  let caps = { Codec_intf.systematic = true; rateless = false }
  let max_repair ~k = (Gf.size Gf.gf256 - 1) - k
  let innovation_probability ~k:_ ~rank:_ = 1.0
  let decode_failure_probability ~k ~received = if received >= k then 0.0 else 1.0

  module Encoder = struct
    type nonrec t = { codec : t; data : Bytes.t array }

    let create ~k ~h data =
      if Array.length data <> k then
        invalid_arg (M.label ^ ".Encoder.create: expected k data packets");
      { codec = M.create ~k ~h; data }

    let k e = core_k e.codec
    let h e = core_h e.codec
    let repair e j = encode_parity e.codec e.data j
  end

  module Decoder = struct
    type nonrec t = {
      codec : t;
      slots : Bytes.t option array; (* n: payload per codeword index *)
      mutable count : int;
    }

    let create ~k ~h =
      let codec = M.create ~k ~h in
      { codec; slots = Array.make (k + h) None; count = 0 }

    let add d ~index payload =
      if index < 0 || index >= Array.length d.slots then
        invalid_arg (M.label ^ ".Decoder.add: index out of range");
      match d.slots.(index) with
      | Some _ -> false
      | None ->
        d.slots.(index) <- Some payload;
        d.count <- d.count + 1;
        true

    let received d = d.count
    let needed d = max 0 (core_k d.codec - d.count)
    let complete d = d.count >= core_k d.codec

    let has_data d index =
      if index < 0 || index >= core_k d.codec then
        invalid_arg (M.label ^ ".Decoder.has_data: index out of range");
      d.slots.(index) <> None

    let missing_data d =
      List.filter (fun j -> d.slots.(j) = None) (List.init (core_k d.codec) Fun.id)

    let decode d =
      if not (complete d) then failwith (M.label ^ ".Decoder.decode: not enough packets");
      let packets = ref [] in
      for index = Array.length d.slots - 1 downto 0 do
        match d.slots.(index) with
        | Some payload -> packets := (index, payload) :: !packets
        | None -> ()
      done;
      decode d.codec (Array.of_list !packets)
  end
end
