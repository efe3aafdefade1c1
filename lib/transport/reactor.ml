module Event_queue = Rmc_sim.Event_queue
module Metrics = Rmc_obs.Metrics

type timer = { mutable cancelled : bool; action : unit -> unit; owner : t }

and t = {
  timers : timer Event_queue.t;
  handlers : (Unix.file_descr, unit -> unit) Hashtbl.t;
  max_fds : int;
  mutable stopped : bool;
  mutable cancelled_pending : int;  (* cancelled timers still in the heap *)
  c_fires : Metrics.counter option;
  c_cancels : Metrics.counter option;
  c_purges : Metrics.counter option;
}

(* Below this many cancelled entries, purging costs more than it saves. *)
let purge_threshold = 64

(* [Unix.select] silently corrupts (or the libc aborts) beyond FD_SETSIZE;
   refuse loudly well before that instead of flaking at scale. *)
let fd_setsize = 1024

let create ?metrics ?(max_fds = fd_setsize) () =
  let counter name = Option.map (fun m -> Metrics.counter m name) metrics in
  if max_fds < 1 || max_fds > fd_setsize then
    invalid_arg
      (Printf.sprintf "Reactor.create: max_fds %d outside 1..%d (FD_SETSIZE)" max_fds
         fd_setsize);
  {
    timers = Event_queue.create ();
    handlers = Hashtbl.create 8;
    max_fds;
    stopped = false;
    cancelled_pending = 0;
    c_fires = counter "reactor.timer_fires";
    c_cancels = counter "reactor.timers_cancelled";
    c_purges = counter "reactor.heap_purges";
  }

let bump = function Some c -> Metrics.incr c | None -> ()

let now _ = Unix.gettimeofday ()

let after t delay action =
  let timer = { cancelled = false; action; owner = t } in
  let fire_at = Unix.gettimeofday () +. Float.max 0.0 delay in
  Event_queue.add t.timers ~time:fire_at timer;
  timer

(* Pop cancelled timers sitting at the top of the heap — they cost O(log n)
   each here versus rotting until their fire time. *)
let rec drop_cancelled_head t =
  match Event_queue.peek t.timers with
  | Some (_, timer) when timer.cancelled ->
    ignore (Event_queue.pop t.timers);
    t.cancelled_pending <- t.cancelled_pending - 1;
    drop_cancelled_head t
  | Some _ | None -> ()

(* When cancelled entries dominate the heap, rebuild it without them so a
   long-lived session that arms and cancels per-TG timers stays bounded. *)
let maybe_purge t =
  let live = Event_queue.size t.timers - t.cancelled_pending in
  if t.cancelled_pending >= purge_threshold && t.cancelled_pending > live then begin
    let removed = Event_queue.filter_in_place t.timers (fun timer -> not timer.cancelled) in
    t.cancelled_pending <- t.cancelled_pending - removed;
    bump t.c_purges
  end

let cancel timer =
  if not timer.cancelled then begin
    timer.cancelled <- true;
    let t = timer.owner in
    t.cancelled_pending <- t.cancelled_pending + 1;
    bump t.c_cancels;
    maybe_purge t
  end

let cancelled timer = timer.cancelled

let pending_timers t = Event_queue.size t.timers

let on_readable t fd callback =
  if (not (Hashtbl.mem t.handlers fd)) && Hashtbl.length t.handlers >= t.max_fds then
    failwith
      (Printf.sprintf
         "Reactor.on_readable: %d descriptors already registered (max_fds %d; \
          select-based loop cannot watch more — shard the run across reactors)"
         (Hashtbl.length t.handlers) t.max_fds);
  Hashtbl.replace t.handlers fd callback
let remove t fd = Hashtbl.remove t.handlers fd
let stop t = t.stopped <- true

(* Fire the earliest timer if it is due.  One per pass of [run]: a timer
   that re-arms itself at zero delay must not starve the sockets. *)
let fire_due_timer t =
  drop_cancelled_head t;
  match Event_queue.peek_time t.timers with
  | Some time when time <= Unix.gettimeofday () -> (
    match Event_queue.pop t.timers with
    | Some (_, timer) ->
      bump t.c_fires;
      timer.action ()
    | None -> ())
  | Some _ | None -> ()

let run ?(deadline = Float.max_float) t =
  t.stopped <- false;
  let continue = ref true in
  while !continue && not t.stopped do
    fire_due_timer t;
    if t.stopped then continue := false
    else begin
      let current = Unix.gettimeofday () in
      if current >= deadline then continue := false
      else begin
        let idle_fds = Hashtbl.length t.handlers = 0 in
        drop_cancelled_head t;
        let next_timer = Event_queue.peek_time t.timers in
        match (next_timer, idle_fds) with
        | None, true -> continue := false
        | _ ->
          let timeout =
            let until_deadline = deadline -. current in
            let until_timer =
              match next_timer with
              | Some time -> Float.max 0.0 (time -. current)
              | None -> 0.250
            in
            Float.min 0.250 (Float.min until_deadline until_timer)
          in
          let fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) t.handlers [] in
          let readable, _, _ =
            try Unix.select fds [] [] timeout
            with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
          in
          List.iter
            (fun fd ->
              match Hashtbl.find_opt t.handlers fd with
              | Some callback when not t.stopped -> callback ()
              | Some _ | None -> ())
            readable
      end
    end
  done
