(* One domain's free list of datagram buffers.

   [free.(0) .. free.(n_free - 1)] is a stack of released buffers; a
   checkout pops it, a release pushes onto it.  Nothing is shared, so
   the fields are plain mutable ones and a checkout/release pair
   allocates nothing once the pool is warm.  The owner is the domain
   that called [create]; every checkout and release checks it, so a
   pool that crossed a domain boundary fails loudly instead of
   corrupting the stack. *)

type t = {
  buf_size : int;
  capacity : int;
  owner : int; (* [Domain.self] at creation *)
  free : Bytes.t array; (* slots [0, n_free) hold the free buffers *)
  mutable n_free : int;
  mutable outstanding : int;
  mutable peak_outstanding : int;
  mutable total_checkouts : int;
  mutable overflow_allocs : int;
}

let create ?(capacity = 16) ~buf_size () =
  if buf_size < 1 then invalid_arg "Buffer_pool.create: buf_size must be >= 1";
  if capacity < 1 then invalid_arg "Buffer_pool.create: capacity must be >= 1";
  {
    buf_size;
    capacity;
    owner = (Domain.self () :> int);
    free = Array.make capacity Bytes.empty;
    n_free = 0;
    outstanding = 0;
    peak_outstanding = 0;
    total_checkouts = 0;
    overflow_allocs = 0;
  }

let buf_size t = t.buf_size
let capacity t = t.capacity
let outstanding t = t.outstanding
let peak_outstanding t = t.peak_outstanding
let total_checkouts t = t.total_checkouts
let overflow_allocs t = t.overflow_allocs
let free_buffers t = t.n_free

let check_owner t op =
  if (Domain.self () :> int) <> t.owner then
    invalid_arg ("Buffer_pool." ^ op ^ ": called from a domain that does not own this pool")

let checkout t =
  check_owner t "checkout";
  t.total_checkouts <- t.total_checkouts + 1;
  t.outstanding <- t.outstanding + 1;
  if t.outstanding > t.peak_outstanding then t.peak_outstanding <- t.outstanding;
  if t.n_free > 0 then begin
    t.n_free <- t.n_free - 1;
    t.free.(t.n_free)
  end
  else begin
    (* Empty-handed: every buffer the pool holds is out.  Past [capacity]
       of them, the fresh buffer is an overflow. *)
    if t.outstanding > t.capacity then t.overflow_allocs <- t.overflow_allocs + 1;
    Bytes.create t.buf_size
  end

(* Top-level rather than a local closure, so the scan allocates nothing. *)
let rec is_free t buffer i = i < t.n_free && (t.free.(i) == buffer || is_free t buffer (i + 1))

let release t buffer =
  check_owner t "release";
  if Bytes.length buffer <> t.buf_size then
    invalid_arg "Buffer_pool.release: buffer size does not match this pool";
  if is_free t buffer 0 then invalid_arg "Buffer_pool.release: double release";
  if t.outstanding <= 0 then invalid_arg "Buffer_pool.release: nothing checked out";
  t.outstanding <- t.outstanding - 1;
  (* A full free list means this is an overflow buffer coming home: the
     GC has it. *)
  if t.n_free < t.capacity then begin
    t.free.(t.n_free) <- buffer;
    t.n_free <- t.n_free + 1
  end

let with_buf t f =
  let buffer = checkout t in
  match f buffer with
  | value ->
    release t buffer;
    value
  | exception exn ->
    release t buffer;
    raise exn

let assert_quiescent t =
  if t.outstanding <> 0 then
    invalid_arg
      (Printf.sprintf "Buffer_pool: %d buffer(s) leaked (still checked out)" t.outstanding)
