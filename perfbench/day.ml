(* day: one simulated day in production ({!Cdbs_experiments.Fig_day} at
   its default parameters, self-tuning on, a protocol monitor attached).
   The simulator chain does nearly all the work; allocator work is tiny.

   The traced run adds a layer-by-layer replay of the day's peak window,
   built from the same public calls the day makes: request generation,
   the k-safe allocation and its migration plan, the bare simulator, the
   simulator with the day's defenses, with a telemetry sink, the monitor
   over the captured trace, and the routing, cost-model and SLO helpers. *)

module Fig_day = Cdbs_experiments.Fig_day
module Monitor = Cdbs_analysis.Monitor
module Tel = Cdbs_telemetry
module Res = Cdbs_resilience
module Rng = Cdbs_util.Rng
module Trace = Cdbs_workloads.Trace
module Spec = Cdbs_workloads.Spec
module Simulator = Cdbs_cluster.Simulator
module Scheduler = Cdbs_cluster.Scheduler
module Cost_model = Cdbs_cluster.Cost_model
module Request = Cdbs_cluster.Request
module Allocation = Cdbs_core.Allocation
module Backend = Cdbs_core.Backend
module Ksafety = Cdbs_core.Ksafety
module Chaos = Cdbs_faults.Chaos
module Fault = Cdbs_faults.Fault
module Planner = Cdbs_migration.Planner

let params seed = { Fig_day.default with Fig_day.seed; autotune = true }

let setups = 5

(* Simulated SLO the day must meet: every request completes within the
   client deadline. *)
let gate p =
  Tel.Slo_report.gate ~min_availability:0.99 ~max_p99_s:p.Fig_day.deadline_s ()

(* What a pass keeps of its day: the result's sink (metrics and trace
   ring) is dropped, so passes do not pile up in the heap. *)
type pass = {
  report : Tel.Slo_report.t;
  events : int;
  wall_s : float;
  gc : Meter.gc;
  problems : string list;  (** failed checks *)
}

let day p =
  Gc.compact ();
  let m = Monitor.create () in
  let g0 = Meter.gc () in
  let r, wall_s =
    Meter.time (fun () -> Meter.span "fig_day.run" (fun () -> Fig_day.run ~params:p ~monitor:m ()))
  in
  let gc = Meter.gc_diff g0 (Meter.gc ()) in
  let rep = r.Fig_day.report in
  let violations = Monitor.violations m in
  let problems =
    (if violations > 0 then [ Printf.sprintf "%d monitor violations" violations ] else [])
    @ (if rep.Tel.Slo_report.completed + rep.shed + rep.failed <> rep.offered then
         [ "completed + aborted <> offered" ]
       else [])
    @ Tel.Slo_report.check (gate p) rep
  in
  Printf.printf "  pass: %d events in %.3f s\n%!" r.Fig_day.events wall_s;
  { report = rep; events = r.Fig_day.events; wall_s; gc; problems }

(* Window [w] of the day: its start, its hour, its offered rate per 10
   minutes and the cluster size the autoscaler gives it, by the day's own
   sizing rule. *)
let window p w =
  let t0 = float_of_int w *. p.Fig_day.window_minutes *. 60. in
  let rate10 = Trace.rate_per_10min ~hour:(t0 /. 3600.) *. p.Fig_day.scale in
  let nodes =
    max p.Fig_day.nodes_min
      (min p.Fig_day.nodes_max
         (int_of_float (ceil (rate10 /. 600. *. 1.25 /. p.Fig_day.capacity_per_node))))
  in
  (t0, t0 /. 3600., rate10, nodes)

let windows p = int_of_float (ceil (24. *. 60. /. p.Fig_day.window_minutes))

(* The window with the highest offered rate. *)
let peak p =
  let rate w = let _, _, r, _ = window p w in r in
  let w = ref 0 in
  for i = 1 to windows p - 1 do if rate i > rate !w then w := i done;
  window p !w

let alloc_at ~hour nodes =
  Ksafety.allocate ~k:1 (Trace.workload_at ~hour) (Backend.homogeneous nodes)

(* The requests of one window, arrivals spread uniformly over it. *)
let window_requests p ~rng w =
  let t0, hour, rate10, _ = window p w in
  let window_s = p.Fig_day.window_minutes *. 60. in
  let n = int_of_float (rate10 *. p.Fig_day.window_minutes /. 10.) in
  Spec.requests ~rng ~n (Trace.specs_at ~hour)
  |> List.map (fun (r : Request.t) ->
         { r with Request.arrival = t0 +. Rng.float rng window_s })

(* A window's chaos schedule at the day's failure rates. *)
let window_faults p ~rng ~nodes w =
  let t0, _, _, _ = window p w in
  Chaos.generate ~rng ~num_backends:nodes
    {
      Chaos.mtbf = p.Fig_day.mtbf; mttr = p.Fig_day.mttr;
      horizon = p.Fig_day.window_minutes *. 60.;
      slowdown_prob = 0.; slowdown_factor = 3.; max_concurrent_down = Some 1;
      correlated_mtbf = None; partition_prob = 0.5; zones = 1;
      shift_mtbf = None; shift_mixes = [];
    }
  |> List.map (fun (f : Fault.timed) -> { f with Fault.at = f.Fault.at +. t0 })

(* Set-up: the day's inputs, built with the public calls the day makes
   before serving each window: its requests, its k-safe allocation at the
   autoscaled size and its chaos schedule.  Returns the request count. *)
let inputs p =
  let rng = Rng.create p.Fig_day.seed in
  let n = ref 0 in
  for w = 0 to windows p - 1 do
    let _, hour, _, nodes = window p w in
    n := !n + List.length (window_requests p ~rng w);
    ignore (Sys.opaque_identity (alloc_at ~hour nodes));
    ignore (Sys.opaque_identity (window_faults p ~rng ~nodes w))
  done;
  !n

(* The day's full defense stack. *)
let defenses p =
  let deadline_s = p.Fig_day.deadline_s in
  Res.Policy.make
    ~admission:(Res.Admission.make ~max_depth:64 ~max_pending:(0.8 *. deadline_s) ())
    ~breaker:Res.Breaker.default_config ~hedge:Res.Hedge.default
    ~deadline:(Res.Deadline.make ~budget:deadline_s) ()

(* Per-call nanoseconds of [f] over [n] calls, median of 3 loops. *)
let ns_per_call n f = 1e9 *. Meter.median_time 3 f /. float_of_int (max 1 n)

let replay p =
  let t0, hour, _, nodes = peak p in
  let w = int_of_float (t0 /. (p.Fig_day.window_minutes *. 60.)) in
  let window_s = p.Fig_day.window_minutes *. 60. in
  let gen () =
    Meter.span "spec.requests" (fun () ->
        window_requests p ~rng:(Rng.create p.Fig_day.seed) w)
  in
  let gen_s = Meter.median_time 3 (fun () -> ignore (gen ())) in
  let requests, gen_words = Meter.words gen in
  let n_req = List.length requests in
  let n = float_of_int n_req in
  let alloc = alloc_at ~hour nodes in
  let ksafety_s =
    Meter.median_time ~calls:20 5 (fun () ->
        Meter.span "ksafety.allocate" (fun () -> alloc_at ~hour nodes))
  in
  (* The resize into the peak: the plan from one node fewer. *)
  let prev = alloc_at ~hour (max 2 (nodes - 1)) in
  let old_fragments =
    List.init (Allocation.num_backends prev) (Allocation.fragments_of prev)
  in
  let planner_s =
    Meter.median_time ~calls:200 5 (fun () ->
        Meter.span "planner.make" (fun () -> Planner.make ~old_fragments alloc))
  in
  let faults = window_faults p ~rng:(Rng.create (p.Fig_day.seed + 1)) ~nodes w in
  let config = Simulator.homogeneous_config nodes in
  let resilience = defenses p in
  let sim ?resilience ?telemetry ?monitor name () =
    Meter.span name (fun () ->
        Simulator.run_open_with_faults ~rng:(Rng.create (p.Fig_day.seed + 2))
          ?resilience ?telemetry ?monitor config alloc requests ~faults)
  in
  let fresh_sink () = Tel.Sink.create ~capacity:p.Fig_day.trace_capacity () in
  let measure f = (Meter.median_time 3 (fun () -> ignore (f ())), snd (Meter.words f)) in
  let bare_s, bare_w = measure (sim "simulator.bare") in
  let res_s, res_w = measure (sim ~resilience "simulator.resilience") in
  let tel_s, tel_w =
    measure (fun () -> sim ~resilience ~telemetry:(fresh_sink ()) "simulator.telemetry" ())
  in
  (* Capture the window's full event stream, as a monitor sees it. *)
  let sink = fresh_sink () in
  let captured = ref [] in
  ignore (Tel.Trace.subscribe sink.Tel.Sink.trace (fun ev -> captured := ev :: !captured));
  let bare = sim ~resilience ~telemetry:sink ~monitor:(Monitor.create ()) "simulator.monitor" () in
  let events = List.rev !captured in
  let n_events = float_of_int (List.length events) in
  let observe () =
    let m = Monitor.create () in
    Meter.span "monitor.observe" (fun () -> List.iter (Monitor.observe m) events);
    m
  in
  let monitor_s = Meter.median_time 3 (fun () -> ignore (observe ())) in
  let m, monitor_w = Meter.words observe in
  (* Routing and cost model over the window's requests. *)
  let sch = Scheduler.create alloc in
  let reads =
    List.filter_map
      (fun (r : Request.t) ->
        if r.Request.is_update then None
        else Option.map (fun qc -> (r.Request.arrival, qc)) (Scheduler.find_class sch r.Request.class_id))
      requests
    |> Array.of_list
  in
  let route_ns =
    ns_per_call (Array.length reads) (fun () ->
        Meter.span "scheduler.best_read_target" (fun () ->
            Array.iter (fun (now, qc) -> ignore (Scheduler.best_read_target sch ~now qc)) reads))
  in
  let resident = Allocation.total_stored alloc /. float_of_int nodes in
  let costs =
    Array.of_list
      (List.map
         (fun (r : Request.t) -> (Simulator.class_mb alloc r, r.Request.is_update))
         requests)
  in
  let cost_ns =
    ns_per_call (Array.length costs) (fun () ->
        Meter.span "cost_model.service_time" (fun () ->
            Array.iter
              (fun (class_mb, is_update) ->
                ignore
                  (Cost_model.service_time Cost_model.default ~class_mb ~resident_mb:resident
                     ~speed:1. ~is_update ~replicas:(if is_update then 2 else 1)))
              costs))
  in
  let responses = Array.of_list (List.map snd bare.Simulator.responses) in
  let record () =
    let h = Tel.Histogram.create () in
    Meter.span "histogram.record" (fun () -> Array.iter (Tel.Histogram.record h) responses);
    h
  in
  let record_ns = ns_per_call (Array.length responses) (fun () -> ignore (record ())) in
  let h = record () in
  let slo () =
    Meter.span "slo_report.of_histogram" (fun () ->
        Tel.Slo_report.of_histogram ~duration_s:window_s ~offered:bare.Simulator.offered
          ~completed:bare.Simulator.run.Simulator.completed ~shed:bare.Simulator.shed
          ~failed:(bare.Simulator.aborted - bare.Simulator.shed)
          ~wasted_work_s:bare.Simulator.wasted_work ~retries:bare.Simulator.retries
          ~hedges:bare.Simulator.hedged ~bytes_moved_mb:0. ~migrations:0
          ~faults_injected:(List.length faults)
          ~utilization:(List.init nodes (fun b -> (b, 0.)))
          h)
  in
  let slo_s = Meter.median_time ~calls:200 5 slo in
  let per_req x = x /. n in
  let metrics =
    [
      ("workloads.gen_us_per_req", 1e6 *. per_req gen_s);
      ("workloads.gen_words_per_req", per_req gen_words);
      ("simulator.us_per_req", 1e6 *. per_req bare_s);
      ("simulator.words_per_req", per_req bare_w);
      ("resilience.us_per_req", 1e6 *. per_req (res_s -. bare_s));
      ("resilience.words_per_req", per_req (res_w -. bare_w));
      ("telemetry.us_per_req", 1e6 *. per_req (tel_s -. res_s));
      ("telemetry.words_per_req", per_req (tel_w -. res_w));
      ("monitor.us_per_event", 1e6 *. monitor_s /. n_events);
      ("monitor.words_per_event", monitor_w /. n_events);
      ("scheduler.best_read_target_ns", route_ns);
      ("cost_model.service_time_ns", cost_ns);
      ("histogram.record_ns", record_ns);
      ("slo_report.of_histogram_us", 1e6 *. slo_s);
      ("ksafety.allocate_ms", 1000. *. ksafety_s);
      ("planner.make_ms", 1000. *. planner_s);
    ]
  in
  let pinned =
    [
      ("replay.requests", string_of_int n_req);
      ("replay.events", string_of_int (List.length events));
      ("workloads.gen_words", Meter.exact gen_words);
      ("simulator.words", Meter.exact bare_w);
      ("resilience.words", Meter.exact (res_w -. bare_w));
      ("telemetry.words", Meter.exact (tel_w -. res_w));
      ("monitor.words", Meter.exact monitor_w);
    ]
  in
  let problems =
    if Monitor.violations m > 0 then [ "monitor replay found violations" ] else []
  in
  (metrics, pinned, problems)

let run ~seed ~seconds ~trace =
  let p = params seed in
  let setup_s =
    Meter.median
      (List.init setups (fun _ ->
           Gc.compact ();
           snd (Meter.time (fun () -> inputs p))))
  in
  let first = day p in
  let slo_json pass = Tel.Slo_report.to_json pass.report in
  let pinned =
    [
      ("sim_p99_ms", Meter.exact (1000. *. first.report.Tel.Slo_report.p99_s));
      ("simulator.events", string_of_int first.events);
      ("slo_report", Digest.to_hex (Digest.string (slo_json first)));
      (* Promoted words depend on when the runtime schedules its
         collections and vary by a fraction of a percent between
         identical runs: reported, not pinned. *)
      ("gc.minor_words", Meter.exact first.gc.Meter.minor_words);
    ]
  in
  (* The seeded outputs must repeat exactly on every later pass. *)
  let repeat pass =
    if slo_json pass <> slo_json first || pass.events <> first.events then
      { pass with problems = "seeded SLO report differs between passes" :: pass.problems }
    else pass
  in
  let _, hour, _, nodes = peak p in
  let peak_alloc = alloc_at ~hour nodes in
  let outcome passes ~extra_pinned ~extra_problems metrics =
    let offered = List.fold_left (fun acc q -> acc + q.report.Tel.Slo_report.offered) 0 passes in
    let lost =
      List.fold_left
        (fun acc q -> acc + q.report.Tel.Slo_report.shed + q.report.failed)
        0 passes
    in
    let problems = List.concat_map (fun q -> q.problems) passes @ extra_problems in
    List.iter (fun s -> prerr_endline ("day: check failed: " ^ s)) problems;
    {
      Meter.correct = problems = [];
      attempted = offered;
      failed = lost + List.length problems;
      metrics;
      pinned = pinned @ extra_pinned;
      domains = 1;
    }
  in
  let rate q = float_of_int q.events /. q.wall_s in
  if not trace then begin
    let passes =
      first :: Meter.more_passes ~seconds ~first_s:first.wall_s (fun () -> repeat (day p))
    in
    outcome passes ~extra_pinned:[] ~extra_problems:[]
      [
        ("setup_s", setup_s);
        ("ops_per_s", Meter.median (List.map rate passes));
        ("peak_rss_mb", Meter.peak_rss_mb ());
        ("scale", Allocation.scale peak_alloc);
        ("replication", Cdbs_core.Replication.degree peak_alloc);
      ]
  end
  else begin
    Meter.tracing := true;
    let traced = repeat (day p) in
    let metrics, replay_pinned, replay_problems = replay p in
    Meter.tracing := false;
    let ev = float_of_int traced.events in
    outcome [ first; traced ] ~extra_pinned:replay_pinned ~extra_problems:replay_problems
      ([
         ("events_per_s", rate traced);
         ("sim_p99_ms", 1000. *. traced.report.Tel.Slo_report.p99_s);
         ("simulator.events", ev);
         ("gc.minor_words_per_event", traced.gc.Meter.minor_words /. ev);
         ("gc.promoted_words_per_event", traced.gc.Meter.promoted_words /. ev);
         ("gc.major_collections", float_of_int traced.gc.Meter.major_collections);
         ("trace.overhead_frac", 1. -. (rate traced /. rate first));
       ]
      @ metrics)
  end
