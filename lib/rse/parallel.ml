(* Multicore work pool for coarse independent tasks: simulation cells,
   TG batches, sweep grid points.  [map] claims them chunk-by-chunk with
   dynamic scheduling and gathers results positionally, so the output is
   independent of which domain ran which task.

   The pool keeps its worker domains alive across calls: batches are
   published under a mutex and claimed task-by-task, with the caller
   participating as the (n+1)-th worker so a pool of [domains = d] uses
   exactly d cores.  Any task exception is captured, the batch drains,
   and the first exception re-raises on the calling domain. *)

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
  while match pool.job with None -> true | Some _ -> pool.next >= pool.total do
    Condition.wait pool.work pool.mutex
  done;
  let job = Option.get pool.job in
  let i = pool.next in
  pool.next <- pool.next + 1;
  Mutex.unlock pool.mutex;
  run_task pool job i;
  worker_loop pool

let create domains =
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
    }
  in
  (* Workers park on the condition variable between batches; an idle pool
     costs one blocked thread per domain and nothing else.  The runtime
     tears them down with the process. *)
  for _ = 2 to domains do
    ignore (Domain.spawn (fun () -> worker_loop pool) : unit Domain.t)
  done;
  pool

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
      let pool = create jobs in
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

(* Task-level sharding for coarse independent jobs (simulation reps, TG
   batches, sweep cells): consecutive indices are claimed [chunk] at a
   time — dynamic scheduling with a per-chunk handoff — and results are
   gathered positionally, so the output array never depends on which
   domain ran which chunk.  The jobs must be independent — in particular
   each should own its RNG. *)
let map ~pool n f =
  if n < 0 then invalid_arg "Parallel.map: negative count";
  if n = 0 then [||]
  else if pool.domains = 1 then Array.init n f
  else begin
    (* ~4 chunks per domain: enough slack for dynamic load balancing
       without paying a handoff per index. *)
    let chunk = max 1 (n / (pool.domains * 4)) in
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
