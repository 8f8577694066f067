module Allocation = Cdbs_core.Allocation
module Query_class = Cdbs_core.Query_class
module Fragment = Cdbs_core.Fragment
module Planner = Cdbs_migration.Planner
module Schedule = Cdbs_migration.Schedule
module Delta = Cdbs_migration.Delta
module Heap = Cdbs_util.Heap
module Tel = Cdbs_telemetry

type config = {
  cost : Cost_model.params;
  speeds : float array;
  protocol : Protocol.t;
}

let homogeneous_config ?(cost = Cost_model.default)
    ?(protocol = Protocol.default) n =
  if n <= 0 then invalid_arg "Simulator.homogeneous_config";
  { cost; speeds = Array.make n 1.; protocol }

type outcome = {
  completed : int;
  makespan : float;
  throughput : float;
  avg_response : float;
  max_response : float;
  p50_response : float;
  p95_response : float;
  p99_response : float;
  busy : float array;
  utilization : float array;
  errors : int;
}

(* (p50, p95, p99) of a response-time list, from one sort; zeros when
   empty. *)
let percentiles_of = function
  | [] -> (0., 0., 0.)
  | rs -> (
      match Cdbs_util.Stats.percentiles [ 50.; 95.; 99. ] rs with
      | [ p50; p95; p99 ] -> (p50, p95, p99)
      | _ -> assert false)

(* The request-level outcome, given the completed requests' response
   times in arrival order (summed in that order, so the mean does not
   depend on the order in which requests completed). *)
let outcome_of sched ~busy ~errors rs =
  let makespan = ref 0. in
  for b = 0 to Array.length busy - 1 do
    if Scheduler.free_at sched ~backend:b > !makespan then
      makespan := Scheduler.free_at sched ~backend:b
  done;
  let makespan = !makespan and completed = List.length rs in
  let p50, p95, p99 = percentiles_of rs in
  {
    completed;
    makespan;
    throughput =
      (if makespan > 0. then float_of_int completed /. makespan else 0.);
    avg_response =
      (if completed > 0 then
         List.fold_left ( +. ) 0. rs /. float_of_int completed
       else 0.);
    max_response = List.fold_left (fun m r -> if r > m then r else m) 0. rs;
    p50_response = p50;
    p95_response = p95;
    p99_response = p99;
    busy;
    utilization =
      Array.map (fun b -> if makespan > 0. then b /. makespan else 0.) busy;
    errors;
  }

let class_mb alloc (r : Request.t) =
  match r.Request.cost_mb with
  | Some mb -> mb
  | None -> (
      match
        Array.find_opt
          (fun c -> c.Query_class.id = r.Request.class_id)
          (Allocation.classes alloc)
      with
      | Some c -> Query_class.size c
      | None -> 0.)

(* Open-mode runs trust arrival order; a caller handing over an unsorted
   list would silently simulate time running backwards (requests "arriving"
   before the clock reached them never queue).  Detect and stably sort
   instead. *)
let sorted_by_arrival requests =
  let rec is_sorted = function
    | (a : Request.t) :: (b :: _ as rest) ->
        a.Request.arrival <= b.Request.arrival && is_sorted rest
    | _ -> true
  in
  if is_sorted requests then requests
  else
    List.stable_sort
      (fun (a : Request.t) b -> Float.compare a.Request.arrival b.Request.arrival)
      requests

(* ------------------------------------------------------------------ *)
(* The event engine: faults and live migration on one event clock     *)
(* ------------------------------------------------------------------ *)

module Fault = Cdbs_faults.Fault
module Retry = Cdbs_faults.Retry

type migration_report = {
  replayed_mb : float;
  min_live_replicas : (string * int) list;
  target_deployed : bool;
}

type recovery = {
  rec_backend : int;
  crashed_at : float;
  recovered_at : float;
  mutable caught_up_at : float;
      (* [nan] while catch-up is pending (or forever, if the backend
         crashed again before finishing it) *)
  replayed_mb : float;
}

type fault_outcome = {
  run : outcome;
  offered : int;
  availability : float;
  retried_requests : int;
  retries : int;
  aborted : int;
  timeouts : int;
  shed : int;
  shed_updates : int;
  hedged : int;
  hedge_wins : int;
  breaker_trips : int;
  wasted_work : float;
  offered_updates : int;
  completed_updates : int;
  cancelled_work : float;
  catch_up_mb : float;
  recoveries : recovery list;
  downtime : float array;
  max_concurrent_down : int;
  events : int;
  responses : (float * float) list;
  migration : migration_report option;
}

(* One retry chain of a read whose service was lost to a crash (or that
   could not be routed at all). *)
type read_ctx = {
  rc_uid : int;
  rc_class : string;
  rc_cost_mb : float option;
  rc_arrival : float;  (* original arrival: responses measure from here *)
  rc_attempt : int;  (* 0 = first attempt *)
  rc_deadline : float;  (* absolute client give-up instant; [infinity]
                           when no deadline policy is active *)
}

(* Work booked on a backend's queue, kept so a crash can cancel it. *)
type booked_kind = Bk_read of read_ctx | Bk_update | Bk_catchup

type booked = {
  bk_start : float;
  bk_finish : float;
  bk_service : float;
  bk_mb : float;
  bk_kind : booked_kind;
}

type dyn_event =
  | Retry_at of float * read_ctx
  | Catchup_done of { at : float; backend : int; gen : int }
  | Hedge_at of { at : float; primary : int; ctx : read_ctx }

let dyn_time = function
  | Retry_at (at, _) -> at
  | Catchup_done { at; _ } -> at
  | Hedge_at { at; _ } -> at

(* Everything the fault engine's event clock processes besides arrivals,
   unified so it can ride a single priority queue.  [Partition] and
   [ZoneOutage] schedule entries are expanded into start/heal pairs before
   the run so the clock only ever sees instantaneous events.  A live
   migration adds its copy starts, cutovers and the drop barrier. *)
type sim_event =
  | Ev_fault of Fault.timed
  | Ev_cut of { backends : int list; heal : bool; zone : int option }
  | Ev_dyn of dyn_event
  | Ev_copy of Schedule.timed_move
  | Ev_cutover of Schedule.timed_move
  | Ev_drop of Planner.drop list

(* Foreground service inflation on a node that is the source or the
   destination of an in-flight migration copy. *)
let copy_contention = 1.25

module Resilience = Cdbs_resilience

let run_open_with_faults ?(policy = Retry.default) ?rng ?resilience ?telemetry
    ?monitor ?topology ?(partition_timeout = 1.) ?migration config alloc
    requests ~faults =
  let n =
    match migration with
    | Some s -> s.Schedule.plan.Planner.num_physical
    | None -> Allocation.num_backends alloc
  in
  if Array.length config.speeds <> n then
    invalid_arg "Simulator.run_open_with_faults: speeds length <> backends";
  if faults <> [] && Option.is_some migration then
    invalid_arg "Simulator.run_open_with_faults: faults during a migration";
  (match topology with
  | Some t when Cdbs_core.Topology.num_backends t <> n ->
      invalid_arg
        "Simulator.run_open_with_faults: topology backend count <> allocation"
  | _ -> ());
  if not (partition_timeout >= 0.) then
    invalid_arg "Simulator.run_open_with_faults: partition_timeout < 0";
  let zone_of =
    Option.map
      (fun t -> Array.init n (Cdbs_core.Topology.zone_of t))
      topology
  in
  (match Fault.validate ?zone_of ~num_backends:n faults with
  | Ok () -> ()
  | Error e -> invalid_arg ("Simulator.run_open_with_faults: " ^ e));
  (* A monitor needs an event stream even when the caller brought no sink
     of its own: give it a small private ring (only the subscription
     matters; nobody reads the ring). *)
  let telemetry =
    match (telemetry, monitor) with
    | None, Some _ -> Some (Tel.Sink.create ~capacity:64 ())
    | _ -> telemetry
  in
  let monitor_owns_attach =
    match (monitor, telemetry) with
    | Some m, Some sink -> Cdbs_analysis.Monitor.attach m sink
    | _ -> false
  in
  let requests = sorted_by_arrival requests in
  let offered = List.length requests in
  Tel.Sink.ev telemetry ~at:0. "run.start"
    [ ("backends", Tel.Trace.Int n); ("offered", Tel.Trace.Int offered) ];
  (* A migrating cluster routes by the live fragment sets, starting from
     the plan's old placement. *)
  let sched =
    match migration with
    | Some s ->
        Scheduler.create_dynamic alloc ~live:s.Schedule.plan.Planner.old_sets
    | None -> Scheduler.create alloc
  in
  let delta : unit Delta.t = Delta.create () in
  let busy = Array.make n 0. in
  let inflight = Array.make n [] in
  (* Per-backend lifecycle generation: bumped at every crash and recover so
     stale [Catchup_done] events from a superseded epoch are ignored. *)
  let gen = Array.make n 0 in
  (* Partition / split-brain fencing state.  [partitioned] marks a backend
     currently isolated by a network partition (its process runs but no
     traffic reaches it); [epoch] is the monotonic fencing token bumped at
     every heal; [fenced] marks a healed backend that must finish its delta
     catch-up before its fence lifts and it may serve reads again. *)
  let partitioned = Array.make n false in
  let fenced = Array.make n false in
  let epoch = Array.make n 0 in
  (* Apply volume lost on the backend itself (cancelled in-flight update
     applications and cancelled catch-up replay) — rejoins owe it on top of
     the delta journal's while-down captures. *)
  let lost_mb = Array.make n 0. in
  let slow_factor = Array.make n 1. and slow_until = Array.make n 0. in
  let down_since = Array.make n nan in
  let downtime = Array.make n 0. in
  let resident_of b =
    Fragment.set_size (Scheduler.live_fragments sched ~backend:b)
  in
  let resident = Array.init n resident_of in
  (* Per request uid: its original arrival and its response ([nan] while
     not completed).  Reads are retracted ([nan] again) when a crash or a
     shed cancels them and re-recorded when a retry lands.  Uids are handed
     out in arrival-pop order, so uid order is (arrival, uid) order. *)
  let arrival_of = Array.make offered 0. in
  let response = Array.make offered nan in
  let retried : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let pending_catchup : (int, recovery) Hashtbl.t = Hashtbl.create 4 in
  let retries = ref 0 and aborted = ref 0 and timeouts = ref 0 in
  (* Resilience defenses: each independently optional; all [None] by
     default. *)
  let res =
    match resilience with Some r -> r | None -> Resilience.Policy.off
  in
  let admission = res.Resilience.Policy.admission in
  (* Simulated-clock cursor for observers that fire from inside callbacks
     (the breaker transition hook carries no [now] of its own). *)
  let now_ref = ref 0. in
  let on_transition =
    match telemetry with
    | None -> None
    | Some _ ->
        Some
          (fun ~backend (st : Resilience.Breaker.state) ->
            Tel.Sink.ev telemetry ~at:!now_ref "breaker.transition"
              [
                ("backend", Tel.Trace.Int backend);
                ("state", Tel.Trace.Str (Resilience.Breaker.state_label st));
              ])
  in
  let breaker =
    Option.map
      (fun config -> Resilience.Breaker.create ~config ?on_transition n)
      res.Resilience.Policy.breaker
  in
  let hedge = Option.map Resilience.Hedge.create res.Resilience.Policy.hedge in
  let deadline_on = res.Resilience.Policy.deadline <> None in
  let deadline_of ~arrival =
    match res.Resilience.Policy.deadline with
    | Some d -> arrival +. d.Resilience.Deadline.budget
    | None -> infinity
  in
  let healthy_at now =
    match breaker with
    | None -> None
    | Some br ->
        Some (fun b -> Resilience.Breaker.allows br ~backend:b ~now)
  in
  let breaker_success ~now b ~latency =
    match breaker with
    | None -> ()
    | Some br -> Resilience.Breaker.record_success br ~backend:b ~now ~latency
  in
  let shed = ref 0 and hedged = ref 0 and hedge_wins = ref 0 in
  let wasted_work = ref 0. in
  let offered_updates = ref 0 and completed_updates = ref 0 in
  let cancelled_work = ref 0. and catch_up_mb = ref 0. in
  let recoveries = ref [] in
  let cur_down = ref 0 and max_down = ref 0 in
  let uid = ref 0 in
  (* Faults and internal events (retries, catch-ups, hedges) live on one
     priority queue.  Ranks order them at equal instants — faults first,
     then internal events — and insertion order breaks the remaining ties
     (FIFO within a category).  Arrivals, which come last at any instant,
     stay in their sorted list; the clock merges the two. *)
  let q : sim_event Heap.t = Heap.create () in
  List.iter
    (fun (f : Fault.timed) ->
      match f.Fault.event with
      | Fault.Partition { backends; duration } ->
          Heap.add q ~time:f.Fault.at ~rank:0
            (Ev_cut { backends; heal = false; zone = None });
          Heap.add q
            ~time:(f.Fault.at +. duration)
            ~rank:0
            (Ev_cut { backends; heal = true; zone = None })
      | Fault.ZoneOutage { zone; duration } ->
          (* Validation already required a topology for zone faults. *)
          let members =
            match topology with
            | Some t -> Cdbs_core.Topology.backends_in t zone
            | None -> []
          in
          Heap.add q ~time:f.Fault.at ~rank:0
            (Ev_cut { backends = members; heal = false; zone = Some zone });
          Heap.add q
            ~time:(f.Fault.at +. duration)
            ~rank:0
            (Ev_cut { backends = members; heal = true; zone = Some zone })
      | Fault.Crash _ | Fault.Recover _ | Fault.Slowdown _
      | Fault.Workload_shift _ ->
          Heap.add q ~time:f.Fault.at ~rank:0 (Ev_fault f))
    (Fault.sort faults);
  let insert_dyn e = Heap.add q ~time:(dyn_time e) ~rank:1 (Ev_dyn e) in
  (* Service quote: what booking this work on [b] right now would cost,
     without booking it.  Admission and deadline checks run on the quote;
     [commit] turns an accepted quote into a booking. *)
  let quote ~now ~mb ~replicas ~is_update b ~factor =
    let slow = if now < slow_until.(b) then slow_factor.(b) else 1. in
    let contention =
      match migration with
      | Some s when Schedule.copying s ~backend:b ~at:now -> copy_contention
      | _ -> 1.
    in
    let service =
      factor *. slow *. contention
      *. Cost_model.service_time config.cost ~class_mb:mb
           ~resident_mb:resident.(b) ~speed:config.speeds.(b) ~is_update
           ~replicas
    in
    let start = max now (Scheduler.free_at sched ~backend:b) in
    (start, start +. service, service)
  in
  let kind_label = function
    | Bk_read _ -> "read"
    | Bk_update -> "update"
    | Bk_catchup -> "catchup"
  in
  (* Without a sink the attribute list is never built: this fires on
     every booking. *)
  let serve_event ~at ~kind b ~start ~finish =
    match telemetry with
    | None -> ()
    | Some _ ->
        let base =
          [
            ("backend", Tel.Trace.Int b);
            ("kind", Tel.Trace.Str (kind_label kind));
            ("start", Tel.Trace.Float start);
            ("finish", Tel.Trace.Float finish);
          ]
        in
        (* Reads carry their query-class id so online estimators can
           harvest measured per-class service times straight off the
           trace. *)
        let attrs =
          match kind with
          | Bk_read rc -> base @ [ ("cls", Tel.Trace.Str rc.rc_class) ]
          | Bk_update | Bk_catchup -> base
        in
        Tel.Sink.ev telemetry ~at "backend.serve" attrs
  in
  (* Bookings are kept only for what cancels or inspects queued work:
     faults, admission control and hedging.  Without any of them nothing
     reads the lists, so they stay empty. *)
  let track_inflight =
    faults <> [] || Option.is_some admission || Option.is_some hedge
  in
  let commit ~mb ~kind b (start, finish, service) =
    Scheduler.book sched ~backend:b ~finish;
    busy.(b) <- busy.(b) +. service;
    if track_inflight then
      inflight.(b) <-
        { bk_start = start; bk_finish = finish; bk_service = service;
          bk_mb = mb; bk_kind = kind }
        :: inflight.(b);
    serve_event ~at:!now_ref ~kind b ~start ~finish;
    finish
  in
  let serve ~now ~mb ~replicas ~is_update ~kind b ~factor =
    commit ~mb ~kind b (quote ~now ~mb ~replicas ~is_update b ~factor)
  in
  (* Replay journaled update volume on [b]'s queue through the delta
     journal's cost model: a rejoin's catch-up, a migration cutover's
     captured deltas. *)
  let replay ~now b mb =
    let service =
      mb *. config.cost.Cost_model.scan_seconds_per_mb /. config.speeds.(b)
    in
    let start = max now (Scheduler.free_at sched ~backend:b) in
    commit ~mb ~kind:Bk_catchup b (start, start +. service, service)
  in
  (* Queue depth for admission control.  Completed bookings are pruned on
     the way (they are kept only so a crash can cancel in-flight work). *)
  let depth_of b ~now =
    let live = List.filter (fun it -> it.bk_finish > now) inflight.(b) in
    inflight.(b) <- live;
    List.length live
  in
  (* Remove a booking and refund its not-yet-served tail after [from_].
     The backend's queue drains earlier by that amount — an approximation
     (bookings made between the victim and now keep their recorded finish
     times), matching the spirit of crash cancellation. *)
  let cancel_booking b it ~from_ =
    inflight.(b) <- List.filter (fun x -> x != it) inflight.(b);
    let refund = max 0. (it.bk_finish -. max it.bk_start from_) in
    busy.(b) <- busy.(b) -. refund;
    Scheduler.book sched ~backend:b
      ~finish:(Scheduler.free_at sched ~backend:b -. refund);
    refund
  in
  (* Shed-oldest-first: evict the queued (not yet started) read that has
     waited longest; it is the one most likely already past its deadline.
     Returns [true] when a victim was found and evicted. *)
  let shed_oldest_queued b ~now =
    let victim =
      List.fold_left
        (fun acc it ->
          match it.bk_kind with
          | Bk_read rc when it.bk_start > now -> (
              match acc with
              | Some (best_rc, _) when best_rc.rc_arrival <= rc.rc_arrival ->
                  acc
              | _ -> Some (rc, it))
          | _ -> acc)
        None inflight.(b)
    in
    match victim with
    | None -> false
    | Some (rc, it) ->
        ignore (cancel_booking b it ~from_:now);
        response.(rc.rc_uid) <- nan;
        incr shed;
        incr aborted;
        Tel.Sink.ev telemetry ~at:now "request.shed"
          [ ("uid", Tel.Trace.Int rc.rc_uid);
            ("reason", Tel.Trace.Str "evicted_oldest") ];
        true
  in
  let find_read_booking b u =
    List.find_opt
      (fun it ->
        match it.bk_kind with Bk_read rc -> rc.rc_uid = u | _ -> false)
      inflight.(b)
  in
  (* An attempt of read [rc] failed at [now]: try again after backoff,
     unless the retry budget is spent.  With a deadline policy active the
     end-to-end budget governs instead of the fixed attempt count: the
     chain retries as long as the backoff lands inside the budget.
     [extra_delay] models slow failure: a partitioned backend does not
     reset connections, so the client only notices after a network timeout
     and the retry fires that much later. *)
  let schedule_retry ?(extra_delay = 0.) ~now rc =
    let attempt = rc.rc_attempt + 1 in
    if (not deadline_on) && Retry.gives_up policy ~attempt then incr aborted
    else
      let at = now +. extra_delay +. Retry.backoff ?rng policy ~attempt in
      let budget_spent =
        if deadline_on then at >= rc.rc_deadline
        else Retry.timed_out policy ~arrival:rc.rc_arrival ~now:at
      in
      if budget_spent then begin
        incr aborted;
        incr timeouts
      end
      else begin
        incr retries;
        Tel.Sink.ev telemetry ~at:now "request.retry"
          ([ ("uid", Tel.Trace.Int rc.rc_uid);
             ("attempt", Tel.Trace.Int attempt);
             ("retry_at", Tel.Trace.Float at) ]
          @
          (* The budget left when the retry fires — the monitor checks it
             decreases monotonically along the chain. *)
          if deadline_on then
            [ ("remaining_s", Tel.Trace.Float (rc.rc_deadline -. at)) ]
          else []);
        Hashtbl.replace retried rc.rc_uid ();
        insert_dyn (Retry_at (at, { rc with rc_attempt = attempt }))
      end
  in
  (* Arm a speculative second dispatch if this read is predicted to exceed
     the adaptive hedge delay. *)
  let maybe_hedge ~now rc b finish =
    match hedge with
    | None -> ()
    | Some h ->
        let d = Resilience.Hedge.delay h in
        Resilience.Hedge.observe h (finish -. now);
        if finish -. now > d then begin
          Tel.Sink.ev telemetry ~at:now "request.hedge_armed"
            [ ("uid", Tel.Trace.Int rc.rc_uid);
              ("primary", Tel.Trace.Int b);
              ("fire_at", Tel.Trace.Float (now +. d)) ];
          insert_dyn (Hedge_at { at = now +. d; primary = b; ctx = rc })
        end
  in
  let handle_read ~now rc =
    if deadline_on && now >= rc.rc_deadline then begin
      (* The client abandoned the request before this attempt started. *)
      incr timeouts;
      incr aborted
    end
    else
      (* Route without materializing a Request or candidate lists: class
         lookup is indexed and target selection is two array scans. *)
      match Scheduler.find_class sched rc.rc_class with
      | None -> schedule_retry ~now rc
      | Some c -> (
          match
            Scheduler.best_read_target ?healthy:(healthy_at now) sched ~now c
          with
          | None -> schedule_retry ~now rc
          | Some b -> (
              let mb =
                match rc.rc_cost_mb with
                | Some mb -> mb
                | None -> Query_class.size c
              in
              (* The quote is pure, so an admission check and the booking it
                 admits share one; only a shed (which reshapes the queue)
                 forces a re-quote. *)
              let book q =
                let _, finish, service = q in
                ignore (commit ~mb ~kind:(Bk_read rc) b q);
                breaker_success ~now b ~latency:(finish -. now);
                if deadline_on && finish > rc.rc_deadline then begin
                  (* Without admission control this work is booked anyway and
                     wasted: the client is gone when it completes. *)
                  incr timeouts;
                  incr aborted;
                  wasted_work := !wasted_work +. service
                end
                else begin
                  response.(rc.rc_uid) <- finish -. rc.rc_arrival;
                  maybe_hedge ~now rc b finish
                end
              in
              let fresh_quote () =
                quote ~now ~mb ~replicas:1 ~is_update:false b ~factor:1.
              in
              match admission with
              | None -> book (fresh_quote ())
              | Some pol ->
                  let ((_, finish, _) as q) = fresh_quote () in
                  if deadline_on && finish > rc.rc_deadline then begin
                    (* Deadline-aware admission: refuse up front instead of
                       serving work whose client will have abandoned it. *)
                    incr timeouts;
                    incr aborted
                  end
                  else
                    let depth = depth_of b ~now in
                    let pending = Scheduler.pending sched ~backend:b ~now in
                    (match
                       Resilience.Admission.decide pol ~depth ~pending
                         ~is_update:false
                     with
                    | Resilience.Admission.Admit -> book q
                    | Resilience.Admission.Shed ->
                        if shed_oldest_queued b ~now then book (fresh_quote ())
                        else begin
                          (* Queue holds no evictable read: shed the
                             newcomer. *)
                          incr shed;
                          incr aborted;
                          Tel.Sink.ev telemetry ~at:now "request.shed"
                            [ ("uid", Tel.Trace.Int rc.rc_uid);
                              ("reason", Tel.Trace.Str "refused_newcomer") ]
                        end)))
  in
  let handle_update ~now (r : Request.t) u =
    incr offered_updates;
    (* Updates bypass every defense: admission never sheds them, deadlines
       never abandon them, breakers never steer them — ROWA requires each
       live replica of a written partition to apply every update. *)
    let targets =
      match Scheduler.find_class sched r.Request.class_id with
      | None -> None
      | Some c -> (
          match Scheduler.targets_for_update sched c with
          | [] -> None
          | targets -> Some (c, targets))
    in
    match targets with
    | None ->
        (* No live replica holds the data: ROWA cannot commit anywhere.
           Updates are not retried (see {!Cdbs_faults.Retry}). *)
        incr aborted
    | Some (c, targets) ->
        let mb =
          match r.Request.cost_mb with
          | Some mb -> mb
          | None -> Query_class.size c
        in
        (* Crashed backends holding the touched fragments journal the
           volume; it is replayed when they rejoin. *)
        let frags = c.Query_class.fragments in
        let per = mb /. float_of_int (max 1 (Fragment.Set.cardinal frags)) in
        Fragment.Set.iter
          (fun f -> ignore (Delta.capture delta ~fragment:f ~item:() ~mb:per))
          frags;
        let split = Protocol.plan config.protocol ~targets in
        let replicas = List.length split.Protocol.sync in
        let finish_all = ref now in
        List.iter
          (fun b ->
            let f =
              serve ~now ~mb ~replicas ~is_update:true ~kind:Bk_update b
                ~factor:1.
            in
            if f > !finish_all then finish_all := f)
          split.Protocol.sync;
        List.iter
          (fun (b, factor) ->
            ignore
              (serve ~now ~mb ~replicas ~is_update:true ~kind:Bk_update b
                 ~factor))
          split.Protocol.async;
        incr completed_updates;
        response.(u) <- !finish_all -. now
  in
  (* Take a backend out of service.  [cut = false] is a crash: clients see
     connections reset and retry immediately.  [cut = true] is a network
     partition: the process keeps running but is unreachable, so in-flight
     reads hang for [partition_timeout] before failing over.  Either way
     the backend's replicas go stale and the delta journal starts
     capturing the update volume they miss. *)
  let take_down ~now ~cut b =
    if Scheduler.is_up sched ~backend:b then begin
      (if cut then begin
         partitioned.(b) <- true;
         Tel.Sink.ev telemetry ~at:now "backend.partition"
           [ ("backend", Tel.Trace.Int b) ]
       end
       else
         Tel.Sink.ev telemetry ~at:now "backend.crash"
           [ ("backend", Tel.Trace.Int b) ]);
      (* A crash interrupts a fencing catch-up: the [gen] bump below
         invalidates its [Catchup_done] and the fence state evaporates
         with the process (the next rejoin starts a fresh catch-up). *)
      fenced.(b) <- false;
      Scheduler.set_down sched ~backend:b;
      down_since.(b) <- now;
      incr cur_down;
      if !cur_down > !max_down then max_down := !cur_down;
      gen.(b) <- gen.(b) + 1;
      Hashtbl.remove pending_catchup b;
      let items = inflight.(b) in
      inflight.(b) <- [];
      List.iter
        (fun it ->
          if it.bk_finish > now then begin
            let lost = it.bk_finish -. max it.bk_start now in
            cancelled_work := !cancelled_work +. lost;
            busy.(b) <- busy.(b) -. lost;
            match it.bk_kind with
            | Bk_read rc ->
                (* The client notices the broken connection at the crash
                   instant and re-issues against a surviving replica; under
                   a partition nothing resets, so it waits out the network
                   timeout first (slow failure). *)
                response.(rc.rc_uid) <- nan;
                schedule_retry
                  ~extra_delay:(if cut then partition_timeout else 0.)
                  ~now rc
            | Bk_update | Bk_catchup ->
                (* Un-applied fraction of the replica write (the update
                   itself committed on the survivors): owed at rejoin. *)
                lost_mb.(b) <-
                  lost_mb.(b) +. (it.bk_mb *. lost /. it.bk_service)
          end)
        items;
      Scheduler.book sched ~backend:b ~finish:now;
      Fragment.Set.iter
        (fun f -> Delta.open_capture delta ~dest:b ~fragment:f)
        (Allocation.fragments_of alloc b)
    end
  in
  let crash ~now b = take_down ~now ~cut:false b in
  (* Bring a backend back.  [healed = false] is a plain crash recovery;
     [healed = true] ends a partition: the heal bumps the backend's
     fencing epoch and — when it missed updates — keeps it fenced until
     the delta catch-up completes, so a stale minority can never serve a
     read the majority already moved past (split-brain prevention). *)
  let rejoin ~now ~healed b =
    if not (Scheduler.is_up sched ~backend:b) then begin
      decr cur_down;
      downtime.(b) <- downtime.(b) +. (now -. down_since.(b));
      gen.(b) <- gen.(b) + 1;
      let missed = ref lost_mb.(b) in
      lost_mb.(b) <- 0.;
      Fragment.Set.iter
        (fun f ->
          let _, mb = Delta.drain delta ~dest:b ~fragment:f in
          missed := !missed +. mb)
        (Allocation.fragments_of alloc b);
      let crashed_at = down_since.(b) in
      if healed then begin
        partitioned.(b) <- false;
        epoch.(b) <- epoch.(b) + 1;
        Tel.Sink.ev telemetry ~at:now "backend.heal"
          [ ("backend", Tel.Trace.Int b);
            ("epoch", Tel.Trace.Int epoch.(b));
            ("replay_mb", Tel.Trace.Float !missed) ]
      end
      else
        Tel.Sink.ev telemetry ~at:now "backend.recover"
          [ ("backend", Tel.Trace.Int b);
            ("replay_mb", Tel.Trace.Float !missed) ];
      if !missed <= 0. then begin
        Scheduler.set_up sched ~backend:b;
        if healed then
          (* Nothing was missed: the fence lifts at the heal instant. *)
          Tel.Sink.ev telemetry ~at:now "backend.fence_lift"
            [ ("backend", Tel.Trace.Int b);
              ("epoch", Tel.Trace.Int epoch.(b)) ];
        recoveries :=
          { rec_backend = b; crashed_at; recovered_at = now;
            caught_up_at = now; replayed_mb = 0. }
          :: !recoveries
      end
      else begin
        (* Rejoin stale: replay the missed volume (the delta-journal cost
           model, as at a migration cutover) before serving reads again.
           New updates queue behind the replay, keeping the backend
           consistent from the catch-up point on. *)
        Scheduler.set_up ~stale:true sched ~backend:b;
        if healed then fenced.(b) <- true;
        catch_up_mb := !catch_up_mb +. !missed;
        let finish = replay ~now b !missed in
        let r =
          { rec_backend = b; crashed_at; recovered_at = now;
            caught_up_at = nan; replayed_mb = !missed }
        in
        recoveries := r :: !recoveries;
        Hashtbl.replace pending_catchup b r;
        insert_dyn (Catchup_done { at = finish; backend = b; gen = gen.(b) })
      end
    end
  in
  let recover ~now b = rejoin ~now ~healed:false b in
  (* A partition start/heal, or a whole-zone outage (correlated crash of
     every member, bracketed by zone.outage / zone.heal trace events). *)
  let apply_cut ~now ~heal ~zone backends =
    match zone with
    | Some z ->
        if heal then begin
          List.iter (fun b -> rejoin ~now ~healed:false b) backends;
          Tel.Sink.ev telemetry ~at:now "zone.heal"
            [ ("zone", Tel.Trace.Int z) ]
        end
        else begin
          Tel.Sink.ev telemetry ~at:now "zone.outage"
            [ ("zone", Tel.Trace.Int z);
              ("backends", Tel.Trace.Int (List.length backends)) ];
          List.iter (fun b -> take_down ~now ~cut:false b) backends
        end
    | None ->
        if heal then
          List.iter
            (fun b -> if partitioned.(b) then rejoin ~now ~healed:true b)
            backends
        else List.iter (fun b -> take_down ~now ~cut:true b) backends
  in
  let apply_fault ({ Fault.at = now; event } : Fault.timed) =
    match event with
    | Fault.Crash b -> crash ~now b
    | Fault.Recover b -> recover ~now b
    | Fault.Slowdown { backend = b; factor; duration } ->
        Tel.Sink.ev telemetry ~at:now "backend.slowdown"
          [ ("backend", Tel.Trace.Int b);
            ("factor", Tel.Trace.Float factor);
            ("duration_s", Tel.Trace.Float duration) ];
        slow_factor.(b) <- factor;
        slow_until.(b) <- now +. duration
    | Fault.Workload_shift { mix } ->
        (* The request stream is pre-generated, so the engine cannot
           change arrivals mid-run; it announces the shift so monitors
           and online estimators see drift on the event clock, and the
           window-driving caller regenerates subsequent arrivals. *)
        Tel.Sink.ev telemetry ~at:now "workload.shift"
          [ ("classes", Tel.Trace.Int (List.length mix)) ]
    | Fault.Partition _ | Fault.ZoneOutage _ ->
        (* Expanded into [Ev_cut] start/heal pairs when the heap was
           loaded; never reaches the clock in this shape. *)
        ()
  in
  let apply_dyn = function
    | Retry_at (now, rc) -> handle_read ~now rc
    | Catchup_done { at = now; backend = b; gen = g } ->
        if
          g = gen.(b)
          && Scheduler.is_up sched ~backend:b
          && Scheduler.is_stale sched ~backend:b
        then begin
          Scheduler.set_stale sched ~backend:b ~stale:false;
          (if fenced.(b) then begin
             (* The healed backend finished replaying what it missed while
                partitioned: its fence lifts and it may serve reads again,
                under the epoch minted at heal time. *)
             fenced.(b) <- false;
             Tel.Sink.ev telemetry ~at:now "backend.fence_lift"
               [ ("backend", Tel.Trace.Int b);
                 ("epoch", Tel.Trace.Int epoch.(b)) ]
           end
           else
             Tel.Sink.ev telemetry ~at:now "backend.catchup_done"
               [ ("backend", Tel.Trace.Int b) ]);
          match Hashtbl.find_opt pending_catchup b with
          | Some r ->
              r.caught_up_at <- now;
              Hashtbl.remove pending_catchup b
          | None -> ()
        end
    | Hedge_at { at = now; primary; ctx = rc } -> (
        (* Speculatively dispatch the read to the next-best replica and
           keep whichever leg completes first; the loser's unserved tail
           is cancelled on the event clock. *)
        match rc.rc_arrival +. response.(rc.rc_uid) with
        | f1 when f1 > now -> (
            match find_read_booking primary rc.rc_uid with
            | None -> () (* crash-cancelled or shed since it was armed *)
            | Some it1 -> (
                match Scheduler.find_class sched rc.rc_class with
                | None -> ()
                | Some c -> (
                    let best =
                      Scheduler.best_read_target
                        ?healthy:(healthy_at now) ~exclude:primary sched ~now
                        c
                    in
                    match best with
                    | None -> () (* no second replica to hedge on *)
                    | Some b2 ->
                        let mb =
                          match rc.rc_cost_mb with
                          | Some mb -> mb
                          | None -> Query_class.size c
                        in
                        let ((s2, f2, sv2) as q2) =
                          quote ~now ~mb ~replicas:1 ~is_update:false b2
                            ~factor:1.
                        in
                        let pointless =
                          (* a hedge that cannot beat the deadline is
                             wasted capacity by construction *)
                          (deadline_on && f2 > rc.rc_deadline)
                          ||
                          match admission with
                          | None -> false
                          | Some pol ->
                              (* A hedge never sheds foreground work. *)
                              Resilience.Admission.decide pol
                                ~depth:(depth_of b2 ~now)
                                ~pending:
                                  (Scheduler.pending sched ~backend:b2 ~now)
                                ~is_update:false
                              = Resilience.Admission.Shed
                        in
                        if not pointless then begin
                          incr hedged;
                          if f2 < f1 then begin
                            incr hedge_wins;
                            Tel.Sink.ev telemetry ~at:now "request.hedge_win"
                              [ ("uid", Tel.Trace.Int rc.rc_uid);
                                ("backend", Tel.Trace.Int b2) ];
                            ignore (commit ~mb ~kind:(Bk_read rc) b2 q2);
                            (* Cancel the losing primary leg: its already-
                               served prefix is sunk cost. *)
                            let refund = cancel_booking primary it1 ~from_:f2 in
                            wasted_work :=
                              !wasted_work +. (it1.bk_service -. refund);
                            response.(rc.rc_uid) <- f2 -. rc.rc_arrival;
                            breaker_success ~now b2 ~latency:(f2 -. now)
                          end
                          else begin
                            (* The primary wins: the hedge leg occupies b2
                               until the win instant, then cancels. *)
                            let consumed = max 0. (min sv2 (f1 -. s2)) in
                            if consumed > 0. then begin
                              Scheduler.book sched ~backend:b2
                                ~finish:(s2 +. consumed);
                              busy.(b2) <- busy.(b2) +. consumed;
                              wasted_work := !wasted_work +. consumed
                            end
                          end
                        end)))
        | _ -> () (* completed before the hedge fired, or mid-retry *))
  in
  (* Live migration.  Expand-then-contract promises each class never drops
     below the smaller of its old and target replica counts: announce that
     floor, then audit the live replicas after every migration event. *)
  let replayed_mb = ref 0. in
  let classes, min_live =
    match migration with
    | None -> ([||], [||])
    | Some s ->
        let plan = s.Schedule.plan in
        let classes = Allocation.classes alloc in
        let min_live = Array.map (Scheduler.live_replicas sched) classes in
        Array.iteri
          (fun i (c : Query_class.t) ->
            let holds set = Fragment.Set.subset c.Query_class.fragments set in
            let target =
              List.length
                (List.filter holds (Array.to_list plan.Planner.target_sets))
            in
            Tel.Sink.ev telemetry ~at:0. "migration.floor"
              [
                ("class", Tel.Trace.Str c.Query_class.id);
                ("floor", Tel.Trace.Int (min min_live.(i) target));
              ])
          classes;
        (* Ranked after faults and internal events; at one instant a copy
           opens before its own (zero-length) cutover, and the drop barrier
           comes last. *)
        List.iter
          (fun (tm : Schedule.timed_move) ->
            Heap.add q ~time:tm.Schedule.start ~rank:2 (Ev_copy tm);
            Heap.add q ~time:tm.Schedule.finish ~rank:3 (Ev_cutover tm))
          s.Schedule.moves;
        Heap.add q ~time:s.Schedule.drops_at ~rank:4
          (Ev_drop plan.Planner.drops);
        (classes, min_live)
  in
  let observe_live ~at =
    Array.iteri
      (fun i (c : Query_class.t) ->
        let r = Scheduler.live_replicas sched c in
        Tel.Sink.ev telemetry ~at "migration.live"
          [
            ("class", Tel.Trace.Str c.Query_class.id);
            ("replicas", Tel.Trace.Int r);
          ];
        if r < min_live.(i) then min_live.(i) <- r)
      classes
  in
  (* A cutover replays the deltas captured while the copy was on the wire
     (foreground work on the destination's queue), then the fragment goes
     live there. *)
  let cutover ~now (tm : Schedule.timed_move) =
    let dest = tm.Schedule.move.Planner.dest in
    let fragment = tm.Schedule.move.Planner.fragment in
    let _, mb = Delta.drain delta ~dest ~fragment in
    if mb > 0. then begin
      ignore (replay ~now dest mb);
      replayed_mb := !replayed_mb +. mb
    end;
    Scheduler.add_live sched ~backend:dest (Fragment.Set.singleton fragment);
    resident.(dest) <- resident_of dest
  in
  let drop (d : Planner.drop) =
    let b = d.Planner.at_backend in
    Scheduler.remove_live sched ~backend:b
      (Fragment.Set.singleton d.Planner.victim);
    resident.(b) <- resident_of b
  in
  let arrive (r : Request.t) =
    let u = !uid in
    incr uid;
    arrival_of.(u) <- r.Request.arrival;
    if r.Request.is_update then handle_update ~now:r.Request.arrival r u
    else
      handle_read ~now:r.Request.arrival
        {
          rc_uid = u;
          rc_class = r.Request.class_id;
          rc_cost_mb = r.Request.cost_mb;
          rc_arrival = r.Request.arrival;
          rc_attempt = 0;
          rc_deadline = deadline_of ~arrival:r.Request.arrival;
        }
  in
  (* The event clock: events in (time, rank, insertion) order, arrivals
     ranking last, so the next arrival goes first only when it is strictly
     earlier than the queue's minimum.  Crucially, fault events keep being
     processed after the last arrival — a crash still cancels whatever is
     queued. *)
  let events_processed = ref 0 in
  let rec loop arrivals =
    let arrival_first =
      match (arrivals, Heap.min_time q) with
      | [], _ -> false
      | _ :: _, None -> true
      | (r : Request.t) :: _, Some t -> r.Request.arrival < t
    in
    match arrivals with
    | r :: rest when arrival_first ->
        incr events_processed;
        now_ref := r.Request.arrival;
        arrive r;
        loop rest
    | _ -> (
        match Heap.pop_timed q with
        | None -> ()
        | Some (at, ev) ->
            incr events_processed;
            now_ref := at;
            (match ev with
            | Ev_fault f -> apply_fault f
            | Ev_cut { backends; heal; zone } ->
                apply_cut ~now:at ~heal ~zone backends
            | Ev_dyn e -> apply_dyn e
            | Ev_copy tm ->
                Delta.open_capture delta ~dest:tm.Schedule.move.Planner.dest
                  ~fragment:tm.Schedule.move.Planner.fragment;
                observe_live ~at
            | Ev_cutover tm ->
                cutover ~now:at tm;
                observe_live ~at
            | Ev_drop drops ->
                List.iter drop drops;
                observe_live ~at);
            loop arrivals)
  in
  loop requests;
  let responses = ref [] and rs = ref [] in
  for u = offered - 1 downto 0 do
    if not (Float.is_nan response.(u)) then begin
      responses := (arrival_of.(u), response.(u)) :: !responses;
      rs := response.(u) :: !rs
    end
  done;
  let rs = !rs in
  let run = outcome_of sched ~busy ~errors:!aborted rs in
  let completed = run.completed and makespan = run.makespan in
  (match telemetry with
  | None -> ()
  | Some sink ->
      let h = Tel.Metrics.histogram sink.Tel.Sink.metrics "sim.response_s" in
      List.iter (Tel.Histogram.record h) rs;
      let cn = Tel.Sink.cn telemetry in
      cn "sim.events" !events_processed;
      cn "sim.offered" offered;
      cn "sim.completed" completed;
      cn "sim.retries" !retries;
      cn "sim.aborted" !aborted;
      cn "sim.timeouts" !timeouts;
      cn "sim.shed" !shed;
      cn "sim.hedged" !hedged;
      cn "sim.hedge_wins" !hedge_wins);
  Tel.Sink.ev telemetry ~at:makespan "run.summary"
    [
      ("offered", Tel.Trace.Int offered);
      ("completed", Tel.Trace.Int completed);
      ("aborted", Tel.Trace.Int !aborted);
      ("shed", Tel.Trace.Int !shed);
      ("timeouts", Tel.Trace.Int !timeouts);
      ("retries", Tel.Trace.Int !retries);
      ("hedged", Tel.Trace.Int !hedged);
      ("hedge_wins", Tel.Trace.Int !hedge_wins);
      ("offered_updates", Tel.Trace.Int !offered_updates);
      ("completed_updates", Tel.Trace.Int !completed_updates);
    ];
  (match (monitor, telemetry) with
  | Some m, Some sink when monitor_owns_attach ->
      Cdbs_analysis.Monitor.detach m sink
  | _ -> ());
  (match monitor with
  | Some m when Cdbs_core.Invariants.active () ->
      Cdbs_analysis.Monitor.check_exn
        ~context:"Simulator.run_open_with_faults" m
  | _ -> ());
  {
    run;
    offered;
    availability =
      (if offered > 0 then float_of_int completed /. float_of_int offered
       else 1.);
    retried_requests = Hashtbl.length retried;
    retries = !retries;
    aborted = !aborted;
    timeouts = !timeouts;
    shed = !shed;
    shed_updates = 0;
    (* updates are never shed; the field witnesses the invariant *)
    hedged = !hedged;
    hedge_wins = !hedge_wins;
    breaker_trips =
      (match breaker with
      | Some br -> Resilience.Breaker.trips br
      | None -> 0);
    wasted_work = !wasted_work;
    offered_updates = !offered_updates;
    completed_updates = !completed_updates;
    cancelled_work = !cancelled_work;
    catch_up_mb = !catch_up_mb;
    recoveries = List.rev !recoveries;
    downtime;
    max_concurrent_down = !max_down;
    events = !events_processed;
    responses = !responses;
    migration =
      Option.map
        (fun s ->
          {
            replayed_mb = !replayed_mb;
            min_live_replicas =
              List.mapi
                (fun i (c : Query_class.t) -> (c.Query_class.id, min_live.(i)))
                (Array.to_list classes);
            target_deployed =
              Array.for_all2 Fragment.Set.equal
                (Array.init n (fun b ->
                     Scheduler.live_fragments sched ~backend:b))
                s.Schedule.plan.Planner.target_sets;
          })
        migration;
  }

(* Fault-free runs are the event engine with an empty fault timeline; a
   batch offers every request at time 0, so dispatch follows list order. *)
let run_open config alloc requests =
  (run_open_with_faults config alloc requests ~faults:[]).run

let run_batch config alloc requests =
  run_open config alloc
    (List.map (fun (r : Request.t) -> { r with Request.arrival = 0. }) requests)
