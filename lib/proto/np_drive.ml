module Header = Rmc_wire.Header
module Profile = Rmc_core.Profile
module Recorder = Rmc_obs.Recorder
module Controller = Rmc_control.Controller

type 'timer clock = { after : float -> (unit -> unit) -> 'timer; cancel : 'timer -> unit }

module Sender = struct
  type t = {
    machine : Np_machine.Sender.t;
    recorder : Recorder.t option;
    actor : string;
    controller : Controller.t option; (* None iff the profile's controller is `Static *)
    mutable applied : Controller.decision; (* last decision fed as Retune *)
  }

  let create ?recorder ~actor ~receivers (p : Profile.t) ~data =
    let machine = Np_machine.Sender.create (Np_replay.machine_config p) ~data in
    let controller =
      match p.controller with
      | `Static -> None
      | (`Ewma | `Gilbert_aware) as kind ->
        Some
          (Controller.create ~kind ~k:p.k ~h:p.h ~proactive:p.proactive ~receivers
             ~pacing:p.pacing ())
    in
    {
      machine;
      recorder;
      actor;
      controller;
      applied = { Controller.proactive = p.proactive; budget = p.h };
    }

  let machine t = t.machine

  (* The capture hook runs only while a recorder is attached. *)
  let step t event =
    match t.recorder with
    | None -> Np_machine.Sender.handle t.machine event
    | Some recorder ->
      Np_replay.step ~recorder ~actor:t.actor (Np_machine.Sender.handle t.machine) event

  (* The Retune goes through the capture hook like any other event, so
     replay stays deterministic without ever re-running the controller. *)
  let tick t =
    match t.controller with
    | None -> step t Np_machine.Tick
    | Some controller ->
      let d = Controller.decision controller in
      let retuned =
        if Controller.decision_equal d t.applied then []
        else begin
          t.applied <- d;
          step t
            (Np_machine.Retune
               { proactive = d.Controller.proactive; budget = d.Controller.budget })
        end
      in
      let effects = step t Np_machine.Tick in
      List.iter
        (function
          | Np_machine.Send (Header.Poll { tg_id; k; size; round }) ->
            Controller.observe_poll controller ~tg:tg_id ~k ~size ~round
          | _ -> ())
        effects;
      retuned @ effects

  let feedback t ~tg ~need ~round =
    (match t.controller with
    | Some controller -> Controller.observe_nak controller ~tg ~need ~round
    | None -> ());
    step t (Np_machine.Feedback { tg; need; round })

  let estimates t =
    Option.map
      (fun c -> (Controller.p_hat c, Controller.m_hat c, Controller.burst_hat c))
      t.controller
end

module Scoreboard = struct
  type t = {
    k : int;
    first_sid : int;
    sent : Bytes.t array array; (* per session: its payloads, by reference *)
    intact_counts : int array array; (* per session, per local TG *)
    verdicts : bool array; (* per session: no delivery so far differed *)
    (* The one-TG memo: the TG of session [memo_session] (-1: none yet)
       whose first packet is [memo_base].  [memo.(i)] is the first buffer
       found intact as its row [i], or [vacant]; [flagged.(i)] says that
       buffer was accepted by identity since it was last compared. *)
    mutable memo_session : int;
    mutable memo_base : int;
    memo : Bytes.t array;
    flagged : bool array;
    mutable memcmps : int;
  }

  (* Private, so no delivered row is ever physically this buffer. *)
  let vacant = Bytes.create 0

  let create ~k ~first_sid sent =
    if k < 1 then invalid_arg "Np_drive.Scoreboard.create: k < 1";
    {
      k;
      first_sid;
      sent;
      intact_counts = Array.map (fun data -> Array.make (Np_replay.tg_count ~k data) 0) sent;
      verdicts = Array.make (Array.length sent) true;
      memo_session = -1;
      memo_base = 0;
      memo = Array.make k vacant;
      flagged = Array.make k false;
      memcmps = 0;
    }

  let intact ~sent row = Bytes.compare sent row = 0

  let compared t ~sent row =
    t.memcmps <- t.memcmps + 1;
    intact ~sent row

  (* Compare every flagged slot again: a buffer mutated since its check
     clears its session's verdict and leaves the memo. *)
  let recheck t =
    for i = 0 to t.k - 1 do
      if t.flagged.(i) then begin
        t.flagged.(i) <- false;
        let sent = t.sent.(t.memo_session).(t.memo_base + i) in
        if not (compared t ~sent t.memo.(i)) then begin
          t.verdicts.(t.memo_session) <- false;
          t.memo.(i) <- vacant
        end
      end
    done

  (* Rows [i, n) of a delivery of the memo's TG against the session's
     payloads from [base].  A row that is its slot's own buffer is accepted
     without a memcmp and flagged; any other row is compared, and the first
     intact one fills a vacant slot.  No sub-array is cut, so a check
     allocates nothing. *)
  let rec rows_intact t sent ~base rows i n =
    i = n
    ||
    let row = rows.(i) in
    if row == t.memo.(i) then begin
      t.flagged.(i) <- true;
      rows_intact t sent ~base rows (i + 1) n
    end
    else
      compared t ~sent:sent.(base + i) row
      && begin
        if t.memo.(i) == vacant then t.memo.(i) <- row;
        rows_intact t sent ~base rows (i + 1) n
      end

  (* The session of [t] that wire TG [tg] belongs to, or -1 if [tg] is
     not one of [t]'s TGs. *)
  let session_of t tg =
    let session = Np_replay.sid_of_wire tg - t.first_sid in
    if
      session >= 0
      && session < Array.length t.sent
      && Np_replay.local_of_wire tg < Array.length t.intact_counts.(session)
    then session
    else -1

  let record t ~tg rows =
    let session = session_of t tg in
    if session >= 0 then begin
      let local = Np_replay.local_of_wire tg and sent = t.sent.(session) in
      let base = local * t.k and n = Array.length rows in
      if n = min t.k (Array.length sent - base) then begin
        if base <> t.memo_base || session <> t.memo_session then begin
          recheck t;
          Array.fill t.memo 0 t.k vacant;
          t.memo_session <- session;
          t.memo_base <- base
        end;
        if rows_intact t sent ~base rows 0 n then begin
          let counts = t.intact_counts.(session) in
          counts.(local) <- counts.(local) + 1
        end
        else t.verdicts.(session) <- false
      end
      else t.verdicts.(session) <- false
    end

  let verdict t ~session =
    recheck t;
    t.verdicts.(session)

  let intact_deliveries t ~tg =
    let session = session_of t tg in
    if session < 0 then 0 else t.intact_counts.(session).(Np_replay.local_of_wire tg)

  let memcmps t = t.memcmps
end

module Receiver = struct
  (* TG ids are ints: hashing one is the identity and comparing two is
     [Int.equal], where the polymorphic table calls [caml_hash] and
     [compare_val] on every arm and cancel. *)
  module Timers = Hashtbl.Make (struct
    type t = int

    let equal = Int.equal
    let hash tg = tg land max_int
  end)

  type 'timer t = {
    machine : Np_machine.Receiver.t;
    recorder : Recorder.t option;
    actor : string;
    clock : 'timer clock;
    scoreboard : Scoreboard.t;
    timers : 'timer Timers.t; (* armed NAK timers, by tg *)
    entry : (Np_machine.event -> unit) option;
    apply : Np_machine.effect -> unit;
  }

  let create ?recorder ~actor ~clock ~scoreboard ?entry ~apply machine =
    {
      machine;
      recorder;
      actor;
      clock;
      scoreboard;
      timers = Timers.create 8;
      entry;
      apply;
    }

  let machine t = t.machine
  let cancel t tg = Option.iter t.clock.cancel (Timers.find_opt t.timers tg)

  (* Without a recorder the machine is called directly: the per-reception
     path builds no closure and no capture strings. *)
  let rec receive t event =
    perform t
      (match t.recorder with
      | None -> Np_machine.Receiver.handle t.machine event
      | Some recorder ->
        Np_replay.step ~recorder ~actor:t.actor (Np_machine.Receiver.handle t.machine) event)

  and perform t = function
    | [] -> ()
    | effect :: rest ->
      (match effect with
      | Np_machine.Arm_timer { tg; round; offset } ->
        cancel t tg;
        Timers.replace t.timers tg (t.clock.after offset (fun () -> fire t ~tg ~round))
      | Np_machine.Cancel_timer { tg } ->
        cancel t tg;
        Timers.remove t.timers tg
      | Np_machine.Deliver { tg; data; reconstructed = _ } ->
        Scoreboard.record t.scoreboard ~tg data;
        t.apply effect
      | _ -> t.apply effect);
      perform t rest

  and fire t ~tg ~round =
    Timers.remove t.timers tg;
    let event = Np_machine.Timer_fired { tg; round } in
    match t.entry with Some entry -> entry event | None -> receive t event

  let cancel_timers t =
    Timers.iter (fun _tg timer -> t.clock.cancel timer) t.timers;
    Timers.reset t.timers
end
