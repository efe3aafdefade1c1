(* Multicore work pool shared by the FEC datapath and the experiment
   engine.

   Two kinds of work run on the same pool:

   - byte-stripe jobs (encode/decode): each worker owns a disjoint byte
     range of every packet involved, so stripes share nothing but
     immutable coefficient rows and the (read-only) source payloads;
     stripe boundaries are aligned to cache lines to keep writers off
     each other's lines;
   - coarse task jobs ([map] / [map_reduce]): independent simulation
     cells, TG batches, sweep grid points — claimed chunk-by-chunk with
     dynamic scheduling, results gathered positionally so the output is
     independent of which domain ran which task.

   The pool keeps its worker domains alive across calls: batches are
   published under a mutex and claimed task-by-task, with the caller
   participating as the (n+1)-th worker so a pool of [domains = d] uses
   exactly d cores.  Any task exception is captured, the batch drains,
   and the first exception re-raises on the calling domain.  Small
   payloads never reach the pool — below [min_bytes] of kernel work the
   sequential blocked path is faster than the wake-up, so we fall back
   to it (and always when the pool has a single domain, e.g. when
   [Domain.recommended_domain_count () = 1]). *)

type pool = {
  domains : int; (* total parallelism including the calling domain *)
  batch_lock : Mutex.t; (* serialises whole batches: one batch at a time *)
  mutex : Mutex.t;
  work : Condition.t; (* signalled when a batch is published *)
  finished : Condition.t; (* signalled when the last task completes *)
  mutable job : (int -> unit) option; (* the current batch, applied per task *)
  mutable next : int; (* next unclaimed task *)
  mutable total : int; (* tasks in the current batch *)
  mutable completed : int;
  mutable error : exn option; (* first task failure, re-raised by the caller *)
  mutable stopping : bool; (* workers drain and exit when set *)
  mutable workers : unit Domain.t list;
}

let domain_count pool = pool.domains

let finish_task pool outcome =
  Mutex.lock pool.mutex;
  (match outcome with
  | Ok () -> ()
  | Error e -> if pool.error = None then pool.error <- Some e);
  pool.completed <- pool.completed + 1;
  if pool.completed >= pool.total then Condition.broadcast pool.finished;
  Mutex.unlock pool.mutex

let run_task pool job i =
  finish_task pool (match job i with () -> Ok () | exception e -> Error e)

let rec worker_loop pool =
  Mutex.lock pool.mutex;
  while
    (not pool.stopping)
    && match pool.job with None -> true | Some _ -> pool.next >= pool.total
  do
    Condition.wait pool.work pool.mutex
  done;
  if pool.stopping then Mutex.unlock pool.mutex
  else begin
    let job = Option.get pool.job in
    let i = pool.next in
    pool.next <- pool.next + 1;
    Mutex.unlock pool.mutex;
    run_task pool job i;
    worker_loop pool
  end

let create_pool ?domains () =
  let requested =
    match domains with Some d -> d | None -> Domain.recommended_domain_count ()
  in
  let domains = max 1 requested in
  let pool =
    {
      domains;
      batch_lock = Mutex.create ();
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      job = None;
      next = 0;
      total = 0;
      completed = 0;
      error = None;
      stopping = false;
      workers = [];
    }
  in
  (* Workers park on the condition variable between batches; an idle pool
     costs one blocked thread per domain and nothing else.  [shutdown]
     joins them; otherwise the runtime tears them down with the process. *)
  pool.workers <-
    List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let shutdown pool =
  Mutex.lock pool.batch_lock;
  Mutex.lock pool.mutex;
  pool.stopping <- true;
  Condition.broadcast pool.work;
  Mutex.unlock pool.mutex;
  let workers = pool.workers in
  pool.workers <- [];
  Mutex.unlock pool.batch_lock;
  List.iter Domain.join workers

let default = lazy (create_pool ())
let default_pool () = Lazy.force default

(* Sized pools are memoized: domains are a finite OS resource, and sweep
   entry points taking [~jobs] would otherwise spawn (and strand) a fresh
   worker set per call. *)
let sized_pools : (int, pool) Hashtbl.t = Hashtbl.create 4
let sized_mutex = Mutex.create ()

let pool_sized jobs =
  let jobs = max 1 jobs in
  Mutex.lock sized_mutex;
  let pool =
    match Hashtbl.find_opt sized_pools jobs with
    | Some pool -> pool
    | None ->
      let pool = create_pool ~domains:jobs () in
      Hashtbl.replace sized_pools jobs pool;
      pool
  in
  Mutex.unlock sized_mutex;
  pool

(* Run [job] for every task index in [0, total), the caller claiming
   tasks alongside the workers, and return once all tasks finished. *)
let run_batch pool job total =
  if total = 1 then job 0
  else if total > 0 then begin
    Mutex.lock pool.batch_lock;
    Mutex.lock pool.mutex;
    pool.job <- Some job;
    pool.next <- 0;
    pool.total <- total;
    pool.completed <- 0;
    pool.error <- None;
    Condition.broadcast pool.work;
    let running = ref true in
    while !running do
      if pool.next < pool.total then begin
        let i = pool.next in
        pool.next <- pool.next + 1;
        Mutex.unlock pool.mutex;
        run_task pool job i;
        Mutex.lock pool.mutex
      end
      else if pool.completed < pool.total then Condition.wait pool.finished pool.mutex
      else running := false
    done;
    pool.job <- None;
    let error = pool.error in
    pool.error <- None;
    Mutex.unlock pool.mutex;
    Mutex.unlock pool.batch_lock;
    match error with Some e -> raise e | None -> ()
  end

(* Stripe boundaries: [parts] ranges covering [0, len), every boundary a
   multiple of 64 bytes (cache-line aligned, and even for 16-bit symbols). *)
let stripe_bounds ~len ~parts =
  let align = 64 in
  let stripe = ((len + parts - 1) / parts + align - 1) / align * align in
  Array.init (parts + 1) (fun i -> min len (i * stripe))

let stripe_count pool ~len =
  let align = 64 in
  min pool.domains ((len + align - 1) / align)

(* Task-level sharding for coarse independent jobs (simulation reps, TG
   batches, sweep cells): consecutive indices are claimed [chunk] at a
   time — dynamic scheduling with a per-chunk handoff — and results are
   gathered positionally, so the output array never depends on which
   domain ran which chunk.  The jobs must be independent — in particular
   each should own its RNG. *)
let chunk_of ?chunk pool n =
  match chunk with
  | Some c ->
    if c < 1 then invalid_arg "Parallel.map: chunk must be >= 1";
    c
  | None ->
    (* ~4 chunks per domain: enough slack for dynamic load balancing
       without paying a handoff per index. *)
    max 1 (n / (pool.domains * 4))

let map ?pool ?chunk n f =
  if n < 0 then invalid_arg "Parallel.map: negative count";
  let pool = match pool with Some p -> p | None -> default_pool () in
  if n = 0 then [||]
  else if pool.domains = 1 then Array.init n f
  else begin
    let chunk = chunk_of ?chunk pool n in
    let tasks = (n + chunk - 1) / chunk in
    let results = Array.make n None in
    run_batch pool
      (fun t ->
        let hi = min n ((t + 1) * chunk) in
        for i = t * chunk to hi - 1 do
          results.(i) <- Some (f i)
        done)
      tasks;
    Array.map (function Some v -> v | None -> assert false) results
  end

let map_reduce ?pool ?chunk n ~map:f ~combine ~init =
  Array.fold_left combine init (map ?pool ?chunk n f)

let default_min_bytes = 1 lsl 20

let run_striped pool ~len apply =
  let parts = stripe_count pool ~len in
  if parts <= 1 then apply ~pos:0 ~len
  else begin
    let bounds = stripe_bounds ~len ~parts in
    run_batch pool
      (fun i ->
        let pos = bounds.(i) in
        let slice = bounds.(i + 1) - pos in
        if slice > 0 then apply ~pos ~len:slice)
      parts
  end

let encode ?pool ?(min_bytes = default_min_bytes) codec data =
  let open Codec_core in
  if h codec = 0 then [||]
  else begin
    let parity, len = encode_prepare codec data in
    let pool = match pool with Some p -> p | None -> default_pool () in
    if pool.domains = 1 || k codec * h codec * len < min_bytes then
      encode_into codec data ~parity ~pos:0 ~len
    else run_striped pool ~len (fun ~pos ~len -> encode_into codec data ~parity ~pos ~len);
    parity
  end

let decode ?pool ?(min_bytes = default_min_bytes) codec received =
  let open Codec_core in
  let plan = decode_plan codec received in
  let missing = plan_missing_count plan in
  if missing > 0 then begin
    let len = plan_payload_len plan in
    let pool = match pool with Some p -> p | None -> default_pool () in
    if pool.domains = 1 || k codec * missing * len < min_bytes then
      decode_accumulate codec plan ~pos:0 ~len
    else run_striped pool ~len (fun ~pos ~len -> decode_accumulate codec plan ~pos ~len)
  end;
  plan_outputs plan
