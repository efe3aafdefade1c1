module Header = Rmc_wire.Header
module Profile = Rmc_core.Profile
module Recorder = Rmc_obs.Recorder
module Controller = Rmc_control.Controller

type 'timer clock = { after : float -> (unit -> unit) -> 'timer; cancel : 'timer -> unit }

module Sender = struct
  type t = {
    machine : Np_machine.Sender.t;
    handle : Np_machine.event -> Np_machine.effect list;
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
      handle = Np_machine.Sender.handle machine;
      recorder;
      actor;
      controller;
      applied = { Controller.proactive = p.proactive; budget = p.h };
    }

  let machine t = t.machine
  let step t event = Np_replay.step ?recorder:t.recorder ~actor:t.actor t.handle event

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

module Receiver = struct
  type 'timer t = {
    machine : Np_machine.Receiver.t;
    handle : Np_machine.event -> Np_machine.effect list;
    recorder : Recorder.t option;
    actor : string;
    clock : 'timer clock;
    timers : (int, 'timer) Hashtbl.t; (* armed NAK timers, by tg *)
    entry : (Np_machine.event -> unit) option;
    apply : Np_machine.effect -> unit;
  }

  let create ?recorder ~actor ~clock ?entry ~apply machine =
    {
      machine;
      handle = Np_machine.Receiver.handle machine;
      recorder;
      actor;
      clock;
      timers = Hashtbl.create 8;
      entry;
      apply;
    }

  let machine t = t.machine
  let cancel t tg = Option.iter t.clock.cancel (Hashtbl.find_opt t.timers tg)

  let rec receive t event =
    perform t (Np_replay.step ?recorder:t.recorder ~actor:t.actor t.handle event)

  and perform t = function
    | [] -> ()
    | effect :: rest ->
      (match effect with
      | Np_machine.Arm_timer { tg; round; offset } ->
        cancel t tg;
        Hashtbl.replace t.timers tg (t.clock.after offset (fun () -> fire t ~tg ~round))
      | Np_machine.Cancel_timer { tg } ->
        cancel t tg;
        Hashtbl.remove t.timers tg
      | _ -> t.apply effect);
      perform t rest

  and fire t ~tg ~round =
    Hashtbl.remove t.timers tg;
    let event = Np_machine.Timer_fired { tg; round } in
    match t.entry with Some entry -> entry event | None -> receive t event

  let cancel_timers t =
    Hashtbl.iter (fun _tg timer -> t.clock.cancel timer) t.timers;
    Hashtbl.reset t.timers
end
