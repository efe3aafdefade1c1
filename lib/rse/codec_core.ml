(* Shared machinery of the linear codecs.  Every repair packet is a
   coefficient row applied to the data: a parity row of an n x k
   generator whose top k x k block is the identity (Rse, Cauchy), or
   Rlnc's (k, j)-derived row.  Encoding is the one loop [combine] over
   whole packets; decoding is the one incremental Gaussian elimination
   below, fed one packet at a time.  Internal module — each public codec
   wraps it with its own construction and error-message prefix.

   Every byte operation is one [Gf.mul_add_into_symbols] call over a
   whole row: a packet payload or a k-symbol coefficient row (the SIMD
   GF(2^8) kernel, or the GF(2^16) symbol loop).  Nothing is cached per
   loss pattern: an elimination costs what the losses it repairs cost. *)

module Gf = Rmc_gf.Gf

(* {1 Symbol rows}

   A coefficient row of k field symbols is one [Bytes.t] of k symbols,
   big-endian for GF(2^16), so the kernels that move payloads also move
   coefficient rows. *)

let symbol sb row c = if sb = 1 then Bytes.get_uint8 row c else Bytes.get_uint16_be row (2 * c)

let set_symbol sb row c v =
  if sb = 1 then Bytes.set_uint8 row c v else Bytes.set_uint16_be row (2 * c) v

let symbol_row field coeffs =
  let sb = Gf.symbol_bytes field in
  let row = Bytes.create (sb * Array.length coeffs) in
  Array.iteri (set_symbol sb row) coeffs;
  row

(* {1 The elimination decoder}

   [coeffs.(c)]/[payloads.(c)] hold the pivot row whose leading 1 sits
   at column [c] (zero to its left, arbitrary to its right; reduction
   above the diagonal waits for [decode]).  A verbatim data packet is a
   unit pivot: kept by reference, never mutated, no coefficient row
   ([direct.(c)]).  A column holds a repair pivot iff its coefficient
   row is non-empty, and no pivot iff neither holds.  An MDS code is the
   case where no distinct packet is ever rejected. *)

module Elimination = struct
  type t = {
    label : string;
    field : Gf.t;
    sb : int; (* bytes per symbol *)
    k : int;
    h : int;
    repair_row : int -> Bytes.t; (* fresh coefficient row of repair j *)
    coeffs : Bytes.t array; (* k repair pivot rows; empty = none *)
    payloads : Bytes.t array; (* parallel to coeffs *)
    direct : bool array; (* unit pivot: data packet c, kept verbatim *)
    mutable rank : int;
    mutable payload_len : int; (* -1 until the first add *)
    mutable solved : bool;
  }

  let make ~label ~field ~k ~h ~repair_row =
    {
      label;
      field;
      sb = Gf.symbol_bytes field;
      k;
      h;
      repair_row;
      coeffs = Array.make k Bytes.empty;
      payloads = Array.make k Bytes.empty;
      direct = Array.make k false;
      rank = 0;
      payload_len = -1;
      solved = false;
    }

  let k d = d.k
  let h d = d.h
  let received d = d.rank
  let needed d = d.k - d.rank
  let complete d = d.rank >= d.k

  let has_data d index =
    if index < 0 || index >= d.k then
      invalid_arg (d.label ^ ".Decoder.has_data: index out of range");
    d.direct.(index)

  let missing_data d = List.filter (fun j -> not d.direct.(j)) (List.init d.k Fun.id)

  let is_repair d c = Bytes.length d.coeffs.(c) > 0

  (* [b] times [coeff], in place where the kernel allows it (m = 8). *)
  let scale d b coeff =
    if coeff = 1 then b
    else if d.sb = 1 then begin
      Gf.mul_into d.field ~dst:b ~src:b ~coeff;
      b
    end
    else begin
      let out = Bytes.make (Bytes.length b) '\000' in
      Gf.mul_add_into_symbols d.field ~dst:out ~src:b ~coeff;
      out
    end

  (* Eliminate the owned row [row]/[y], zero left of column [from],
     against the pivots; install what survives as a new pivot.  [true]
     iff the row was innovative. *)
  let reduce d row y ~from =
    let lead = ref (-1) in
    let c = ref from in
    while !c < d.k do
      let coeff = symbol d.sb row !c in
      (* row -= coeff * pivot(c); subtraction = addition here. *)
      if coeff <> 0 then
        if d.direct.(!c) then begin
          set_symbol d.sb row !c 0;
          Gf.mul_add_into_symbols d.field ~dst:y ~src:d.payloads.(!c) ~coeff
        end
        else if is_repair d !c then begin
          Gf.mul_add_into_symbols d.field ~dst:row ~src:d.coeffs.(!c) ~coeff;
          Gf.mul_add_into_symbols d.field ~dst:y ~src:d.payloads.(!c) ~coeff
        end
        else begin
          lead := !c;
          c := d.k (* first surviving column: this is the new pivot *)
        end;
      incr c
    done;
    if !lead < 0 then false
    else begin
      let lead = !lead in
      (* Normalise the pivot to a leading 1. *)
      let inv = Gf.inv d.field (symbol d.sb row lead) in
      d.coeffs.(lead) <- scale d row inv;
      d.payloads.(lead) <- scale d y inv;
      d.rank <- d.rank + 1;
      true
    end

  let add d ~index payload =
    if index < 0 || index >= d.k + d.h then
      invalid_arg (d.label ^ ".Decoder.add: index out of range");
    if d.payload_len < 0 then d.payload_len <- Bytes.length payload
    else if Bytes.length payload <> d.payload_len then
      invalid_arg (d.label ^ ".Decoder.add: unequal payload lengths");
    if complete d then false
    else if index >= d.k then
      (* Copy before eliminating: ownership passes to the decoder, but a
         repair pivot's payload is mutated by later eliminations and by
         [decode]. *)
      reduce d (d.repair_row (index - d.k)) (Bytes.copy payload) ~from:0
    else if d.direct.(index) then false (* duplicate *)
    else if not (is_repair d index) then begin
      d.direct.(index) <- true;
      d.payloads.(index) <- payload;
      d.rank <- d.rank + 1;
      true
    end
    else begin
      (* A repair row holds this column: the data packet takes it over as
         its unit pivot, and the displaced row, minus the data packet, is
         reduced further — innovative iff the data packet was. *)
      let row = d.coeffs.(index) and y = d.payloads.(index) in
      d.direct.(index) <- true;
      d.coeffs.(index) <- Bytes.empty;
      d.payloads.(index) <- payload;
      set_symbol d.sb row index 0;
      Gf.xor_into ~dst:y ~src:payload;
      reduce d row y ~from:(index + 1)
    end

  let decode d =
    if not (complete d) then failwith (d.label ^ ".Decoder.decode: not enough packets");
    if not d.solved then begin
      (* Back-substitute bottom up, repair pivots only: every column
         right of row [r] already holds its data packet, so clearing row
         [r]'s entries there leaves data packet [r].  Unit rows are only
         ever the source. *)
      for r = d.k - 2 downto 0 do
        if is_repair d r then begin
          let row = d.coeffs.(r) and y = d.payloads.(r) in
          for c = r + 1 to d.k - 1 do
            let coeff = symbol d.sb row c in
            if coeff <> 0 then Gf.mul_add_into_symbols d.field ~dst:y ~src:d.payloads.(c) ~coeff
          done
        end
      done;
      d.solved <- true
    end;
    Array.copy d.payloads
end

(* {1 Block codecs}

   A systematic block codec is only its parity rows: generator rows
   k..n-1, each a row of k symbols.  Rows 0..k-1 are the identity and
   never stored. *)

type t = Bytes.t array

let make ~field rows = Array.map (symbol_row field) rows

let check_dimensions ~label ~field ~k ~h =
  (* Reject fields without vector kernels up front. *)
  ignore (Gf.symbol_bytes field);
  if k < 1 then invalid_arg (label ^ ".create: k must be >= 1");
  if h < 0 then invalid_arg (label ^ ".create: h must be >= 0");
  if k + h > Gf.size field - 1 then
    invalid_arg (label ^ ".create: k + h exceeds 2^m - 1 codeword positions")

(* Construction memo: protocol layers call [create] per transfer, and
   the memo makes every session with one geometry share one set of
   parity rows instead of each allocating h of them.  Codecs are
   immutable, so sharing one instance per (label, field, k, h) across
   domains is sound. *)
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

let parity_row t j = Bytes.copy t.(j)

(* {1 Encoding}

   A repair is [sum_c row.(c) * data.(c)], one kernel call per non-zero
   coefficient. *)

let combine field ~row data =
  let sb = Gf.symbol_bytes field in
  let out = Bytes.make (Bytes.length data.(0)) '\000' in
  for c = 0 to Array.length data - 1 do
    let coeff = symbol sb row c in
    if coeff <> 0 then Gf.mul_add_into_symbols field ~dst:out ~src:data.(c) ~coeff
  done;
  out
