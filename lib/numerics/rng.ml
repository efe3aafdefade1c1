(* The four xoshiro256++ words live unboxed in one 32-byte buffer at byte
   offsets 0, 8, 16 and 24.  A record of [mutable int64] fields would box
   a fresh word on every store; reading and writing the buffer in place
   keeps a draw off the minor heap, as long as the arithmetic on the
   [int64] values stays inside this module (see [bits64] below).

   Every buffer is built 32 bytes long by [of_int64_seed] (or copied from
   one), so the step reads and writes it without bounds checks.  The float
   draws convert their 53-bit integer with [float_of_int], one native
   instruction: [Int64.to_float] is a C call that switches stacks on every
   draw, and the two agree exactly on values below 2^53. *)
type t = Bytes.t

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* splitmix64: used only to expand a seed into four well-mixed words. *)
let splitmix_next state =
  let z = Int64.add !state 0x9e3779b97f4a7c15L in
  state := z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_int64_seed seed =
  let state = ref seed in
  let s0 = splitmix_next state in
  let s1 = splitmix_next state in
  let s2 = splitmix_next state in
  let s3 = splitmix_next state in
  (* An all-zero state is a fixed point of xoshiro; splitmix cannot produce
     four zero words from any seed, but assert it anyway. *)
  assert (not Int64.(equal s0 0L && equal s1 0L && equal s2 0L && equal s3 0L));
  let t = Bytes.create 32 in
  Bytes.set_int64_ne t 0 s0;
  Bytes.set_int64_ne t 8 s1;
  Bytes.set_int64_ne t 16 s2;
  Bytes.set_int64_ne t 24 s3;
  t

let create ?(seed = 0x1234_5678) () = of_int64_seed (Int64.of_int seed)
let copy = Bytes.copy

(* Inlined into every draw in this module, so the result and the state
   words stay in registers; only the exported [bits64] boxes its result. *)
let[@inline] bits64 t =
  let s0 = get64u t 0 and s1 = get64u t 8 and s2 = get64u t 16 and s3 = get64u t 24 in
  let result = Int64.add (rotl (Int64.add s0 s3) 23) s0 in
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  set64u t 0 s0;
  set64u t 8 s1;
  set64u t 16 (Int64.logxor s2 tmp);
  set64u t 24 (rotl s3 45);
  result

let split t = of_int64_seed (bits64 t)

(* Fold a base seed and a cell's integer coordinates through splitmix64.
   Purely functional: the same (seed, coords) always yields the same
   derived seed, and each coordinate perturbs the state before the next
   output is drawn, so neighbouring grid cells get well-separated seeds
   no matter how (or on which domain) the cells are later executed. *)
let derive_seed seed coords =
  let state = ref (Int64.of_int seed) in
  let out = ref (splitmix_next state) in
  Array.iter
    (fun coordinate ->
      (* Run the coordinate itself through the splitmix finaliser before
         folding it in: xoring raw multiples of the golden gamma into the
         state collides for small coordinate grids (the mixing only
         happens after the xor), while a finalised word scatters even
         adjacent coordinates across the whole state space. *)
      state := Int64.logxor !state (splitmix_next (ref (Int64.of_int coordinate)));
      out := splitmix_next state)
    coords;
  (* Truncate to a non-negative OCaml int so the result feeds [create]. *)
  Int64.to_int (Int64.shift_right_logical !out 2)

(* [bits < 2^53] fits an OCaml int, so [float_of_int] converts it exactly. *)
let[@inline] float t =
  let bits = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int bits *. 0x1p-53

let[@inline] float_pos t =
  let bits = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  (float_of_int bits +. 1.0) *. 0x1p-53

(* Rejection sampling on the top bits to avoid modulo bias.  The loop
   carries the bound as an [int], so nothing is boxed between attempts. *)
let rec draw_below t n =
  let bound = Int64.of_int n in
  let r = Int64.shift_right_logical (bits64 t) 1 in
  let v = Int64.rem r bound in
  (* Discard draws from the incomplete final block of size [2^63 mod n]:
     [r - v + (bound - 1)] overflows to negative exactly there. *)
  if Int64.compare (Int64.add (Int64.sub r v) (Int64.sub bound 1L)) 0L < 0 then draw_below t n
  else Int64.to_int v

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  if n land (n - 1) = 0 then Int64.to_int (Int64.shift_right_logical (bits64 t) 1) land (n - 1)
  else draw_below t n

let bool t = Int64.compare (bits64 t) 0L < 0
let[@inline] bernoulli t p = float t < p

let exponential t ~rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: rate must be positive";
  -.log (float_pos t) /. rate

(* One geometric variate given [log_q = log1p (-p)].  Clamp: for tiny p
   the float result can round past max_int. *)
let[@inline] geometric_of_log t log_q =
  let g = log (float_pos t) /. log_q in
  if g >= 1e18 then max_int else int_of_float g

let geometric t ~p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric: p must be in (0,1]";
  if p >= 1.0 then 0 else geometric_of_log t (Float.log1p (-.p))

let binomial_by_trials t ~n ~p =
  let count = ref 0 in
  for _ = 1 to n do
    if bernoulli t p then incr count
  done;
  !count

let binomial_by_skips t ~n ~p =
  if p <= 0.0 || p >= 1.0 then invalid_arg "Rng.binomial_by_skips: p must be in (0,1)";
  let log_q = Float.log1p (-.p) in
  let count = ref 0 and position = ref 0 in
  let continue = ref true in
  while !continue do
    let skip = geometric_of_log t log_q in
    if skip >= n - !position then continue := false
    else begin
      position := !position + skip + 1;
      incr count;
      if !position >= n then continue := false
    end
  done;
  !count

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
