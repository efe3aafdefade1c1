type t = {
  m : int;
  size : int;
  exp_table : int array; (* alpha^i for i in [0, 2*(size-1)); doubled to skip a mod *)
  log_table : int array; (* log_table.(0) = -1 sentinel *)
  mul256 : Bytes.t; (* 64K flat product table when m = 8, empty otherwise *)
}

(* Standard primitive polynomials (low-weight, as in Rizzo's fec.c). *)
let reduction_polynomials =
  [|
    (* index = m, entries 0 and 1 unused *)
    0; 0; 0x7; 0xB; 0x13; 0x25; 0x43; 0x89; 0x11D; 0x211; 0x409; 0x805; 0x1053; 0x201B;
    0x4443; 0x8003; 0x1100B;
  |]

let build_tables m poly =
  let size = 1 lsl m in
  let order = size - 1 in
  let exp_table = Array.make (2 * order) 0 in
  let log_table = Array.make size (-1) in
  let x = ref 1 in
  for i = 0 to order - 1 do
    exp_table.(i) <- !x;
    exp_table.(i + order) <- !x;
    if log_table.(!x) <> -1 then
      failwith "Gf.create: reduction polynomial is not primitive";
    log_table.(!x) <- i;
    x := !x lsl 1;
    if !x land size <> 0 then x := !x lxor poly
  done;
  if !x <> 1 then failwith "Gf.create: reduction polynomial is not primitive";
  (exp_table, log_table)

let build_mul256 exp_table log_table =
  let table = Bytes.make (256 * 256) '\000' in
  for a = 1 to 255 do
    let la = log_table.(a) in
    for b = 1 to 255 do
      let product = exp_table.(la + log_table.(b)) in
      Bytes.unsafe_set table ((a lsl 8) lor b) (Char.unsafe_chr product)
    done
  done;
  table

let make m =
  if m < 2 || m > 16 then invalid_arg "Gf.create: m must be in [2, 16]";
  let poly = reduction_polynomials.(m) in
  let exp_table, log_table = build_tables m poly in
  let mul256 = if m = 8 then build_mul256 exp_table log_table else Bytes.empty in
  { m; size = 1 lsl m; exp_table; log_table; mul256 }

let cache : (int, t) Hashtbl.t = Hashtbl.create 8
let cache_mutex = Mutex.create ()

let create m =
  if m < 2 || m > 16 then invalid_arg "Gf.create: m must be in [2, 16]";
  Mutex.lock cache_mutex;
  match
    match Hashtbl.find_opt cache m with
    | Some field -> field
    | None ->
      let field = make m in
      Hashtbl.replace cache m field;
      field
  with
  | field ->
    Mutex.unlock cache_mutex;
    field
  | exception e ->
    Mutex.unlock cache_mutex;
    raise e

let gf256 = create 8
let m field = field.m
let size field = field.size
let zero = 0
let one = 1
let add a b = a lxor b
let sub = add
let valid field x = x >= 0 && x < field.size

let mul field a b =
  if a = 0 || b = 0 then 0 else field.exp_table.(field.log_table.(a) + field.log_table.(b))

let inv field a =
  if a = 0 then raise Division_by_zero
  else field.exp_table.(field.size - 1 - field.log_table.(a))

let div field a b =
  if b = 0 then raise Division_by_zero
  else if a = 0 then 0
  else begin
    let order = field.size - 1 in
    field.exp_table.(field.log_table.(a) - field.log_table.(b) + order)
  end

let exp field i =
  let order = field.size - 1 in
  let i = ((i mod order) + order) mod order in
  field.exp_table.(i)

let log field a =
  if a = 0 then invalid_arg "Gf.log: log of zero" else field.log_table.(a)

let pow field x e =
  if e < 0 then invalid_arg "Gf.pow: negative exponent";
  if e = 0 then 1
  else if x = 0 then 0
  else begin
    let order = field.size - 1 in
    field.exp_table.((field.log_table.(x) * e) mod order)
  end


let require_gf256 field name =
  if field.m <> 8 then invalid_arg (name ^ ": byte kernels need GF(2^8)")

let check_range name dst src pos len =
  if Bytes.length dst <> Bytes.length src then invalid_arg (name ^ ": length mismatch");
  if pos < 0 || len < 0 || pos + len > Bytes.length dst then
    invalid_arg (name ^ ": range out of bounds")

(* {1 Scalar reference kernels}

   Byte-at-a-time loops, kept verbatim as the semantic reference for the
   C kernel (differential tests compare against these). *)

let xor_into_scalar_range ~dst ~src ~pos ~len =
  for i = pos to pos + len - 1 do
    Bytes.unsafe_set dst i
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get dst i) lxor Char.code (Bytes.unsafe_get src i)))
  done

let mul_add_into_scalar_range field ~dst ~src ~coeff ~pos ~len =
  if coeff = 0 then ()
  else if coeff = 1 then xor_into_scalar_range ~dst ~src ~pos ~len
  else begin
    let row = coeff lsl 8 in
    let table = field.mul256 in
    for i = pos to pos + len - 1 do
      let product =
        Char.code (Bytes.unsafe_get table (row lor Char.code (Bytes.unsafe_get src i)))
      in
      Bytes.unsafe_set dst i (Char.unsafe_chr (Char.code (Bytes.unsafe_get dst i) lxor product))
    done
  end

let mul_into_scalar_range field ~dst ~src ~coeff ~pos ~len =
  if coeff = 0 then Bytes.fill dst pos len '\000'
  else if coeff = 1 then Bytes.blit src pos dst pos len
  else begin
    let row = coeff lsl 8 in
    let table = field.mul256 in
    for i = pos to pos + len - 1 do
      Bytes.unsafe_set dst i
        (Bytes.unsafe_get table (row lor Char.code (Bytes.unsafe_get src i)))
    done
  end

let xor_into_scalar ~dst ~src =
  let len = Bytes.length src in
  check_range "Gf.xor_into" dst src 0 len;
  xor_into_scalar_range ~dst ~src ~pos:0 ~len

let mul_add_into_scalar field ~dst ~src ~coeff =
  require_gf256 field "Gf.mul_add_into";
  let len = Bytes.length src in
  check_range "Gf.mul_add_into" dst src 0 len;
  mul_add_into_scalar_range field ~dst ~src ~coeff ~pos:0 ~len

let mul_into_scalar field ~dst ~src ~coeff =
  require_gf256 field "Gf.mul_into";
  let len = Bytes.length src in
  check_range "Gf.mul_into" dst src 0 len;
  mul_into_scalar_range field ~dst ~src ~coeff ~pos:0 ~len

(* {1 The C kernel}

   [gf_stubs.c] holds one multiply-accumulate and one multiply over a byte
   window, each with three paths: GFNI (AVX-512), SSSE3 and a portable
   byte-table loop.  The last argument names the path; the best one the
   host supports is chosen once, here.  Neither external allocates or
   raises, so every bound and the coefficient are checked before the
   call. *)

external kernel_init : Bytes.t -> int = "rmc_gf_kernel_init"

external kernel_mul_add :
  Bytes.t ->
  Bytes.t ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  unit = "rmc_gf_mul_add_byte" "rmc_gf_mul_add"
[@@noalloc]

external kernel_mul :
  Bytes.t ->
  Bytes.t ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  unit = "rmc_gf_mul_byte" "rmc_gf_mul"
[@@noalloc]

let path_names = [| "portable"; "ssse3"; "gfni" |]

(* Index into [path_names]; every path below it runs here too. *)
let best_path = kernel_init gf256.mul256

let kernel = path_names.(best_path)

let check_coeff name coeff =
  if coeff < 0 || coeff > 255 then invalid_arg (name ^ ": coefficient out of range")

let check name field ~dst ~src ~coeff ~pos ~len =
  require_gf256 field name;
  check_range name dst src pos len;
  check_coeff name coeff

let mul_add_checked name path field ~dst ~src ~coeff ~pos ~len =
  check name field ~dst ~src ~coeff ~pos ~len;
  kernel_mul_add dst src pos len coeff path

let mul_checked name path field ~dst ~src ~coeff ~pos ~len =
  check name field ~dst ~src ~coeff ~pos ~len;
  kernel_mul dst src pos len coeff path

(* {1 Public kernels} *)

let xor_into ~dst ~src =
  mul_add_checked "Gf.xor_into" best_path gf256 ~dst ~src ~coeff:1 ~pos:0
    ~len:(Bytes.length src)

let mul_add_into field ~dst ~src ~coeff =
  mul_add_checked "Gf.mul_add_into" best_path field ~dst ~src ~coeff ~pos:0
    ~len:(Bytes.length src)

let mul_into field ~dst ~src ~coeff =
  mul_checked "Gf.mul_into" best_path field ~dst ~src ~coeff ~pos:0 ~len:(Bytes.length src)

module For_testing = struct
  let paths = Array.to_list (Array.sub path_names 0 (best_path + 1))

  let path_index path =
    let rec find p =
      if p > best_path then
        invalid_arg ("Gf.For_testing: no kernel path " ^ path ^ " on this host")
      else if path_names.(p) = path then p
      else find (p + 1)
    in
    find 0

  let mul_add_into_range ~path field ~dst ~src ~coeff ~pos ~len =
    mul_add_checked "Gf.mul_add_into_range" (path_index path) field ~dst ~src ~coeff ~pos ~len

  let mul_into_range ~path field ~dst ~src ~coeff ~pos ~len =
    mul_checked "Gf.mul_into" (path_index path) field ~dst ~src ~coeff ~pos ~len
end

(* {1 Symbol-generic kernels} *)

let symbol_bytes field =
  match field.m with
  | 8 -> 1
  | 16 -> 2
  | _ -> invalid_arg "Gf.symbol_bytes: vector kernels exist only for m = 8 and m = 16"

(* GF(2^16) multiply-accumulate over big-endian 16-bit symbols.  Lengths
   are validated by [mul_add_into_symbols], so the loop reads and writes
   each symbol as two unchecked bytes. *)
let mul_add_into_symbols16 field ~dst ~src ~coeff =
  if coeff <> 0 then begin
    (* exp_table is doubled, so log_coeff + log s needs no reduction. *)
    let log_coeff = Array.unsafe_get field.log_table coeff in
    let exp_table = field.exp_table and log_table = field.log_table in
    let get b i =
      (Char.code (Bytes.unsafe_get b i) lsl 8) lor Char.code (Bytes.unsafe_get b (i + 1))
    in
    let len = Bytes.length src in
    let i = ref 0 in
    while !i < len do
      let s = get src !i in
      if s <> 0 then begin
        let product =
          get dst !i lxor Array.unsafe_get exp_table (log_coeff + Array.unsafe_get log_table s)
        in
        Bytes.unsafe_set dst !i (Char.unsafe_chr (product lsr 8));
        Bytes.unsafe_set dst (!i + 1) (Char.unsafe_chr (product land 0xff))
      end;
      i := !i + 2
    done
  end

let mul_add_into_symbols field ~dst ~src ~coeff =
  match field.m with
  | 8 -> mul_add_into field ~dst ~src ~coeff
  | 16 ->
    let len = Bytes.length src in
    check_range "Gf.mul_add_into_symbols" dst src 0 len;
    if len land 1 <> 0 then
      invalid_arg "Gf.mul_add_into_symbols: odd length for 16-bit symbols";
    mul_add_into_symbols16 field ~dst ~src ~coeff
  | _ -> invalid_arg "Gf.mul_add_into_symbols: vector kernels exist only for m = 8 and m = 16"
