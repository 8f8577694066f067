(* alloc-scale and alloc-evolve: the allocator alone, no simulator or SQL.

   One pass places a synthetic instance with the dense greedy, optionally
   improves it with the island memetic (alloc-evolve), then applies a
   random 1% workload delta and repairs it incrementally.  The dense
   checker verifies every product; the memetic must not raise the greedy
   scale. *)

module Rng = Cdbs_util.Rng
module Dense = Cdbs_core.Dense
module Incremental = Cdbs_core.Incremental
module Memetic_par = Cdbs_core.Memetic_par
module Check = Cdbs_analysis.Check_allocation
module Diag = Cdbs_analysis.Diagnostic

type size = { fragments : int; reads : int; updates : int; backends : int }

(* Quadratic regressions in the dense core only show at 10⁶ fragments;
   the memetic does not fit in memory there, so it gets 10⁵. *)
let scale_size = { fragments = 1_000_000; reads = 120_000; updates = 30_000; backends = 100 }
let evolve_size = { fragments = 100_000; reads = 25_000; updates = 6_000; backends = 50 }

(* The massive-instance experiment's memetic settings. *)
let memetic =
  {
    Memetic_par.default_params with
    Memetic_par.population = 6;
    generations = 8;
    islands = 4;
    migration_every = 3;
  }

let delta_frac = 0.01
let setups = 5

(* Instances built per set-up sample: one at 10^6 fragments, ten at 10^5,
   so that a sample lasts a quarter of a second or more at either size. *)
let builds_per_setup s = max 1 (1_000_000 / s.fragments)

let instance ~seed s =
  Dense.synthetic ~rng:(Rng.create seed) ~fragments:s.fragments ~reads:s.reads
    ~updates:s.updates ~backends:s.backends ()

(* Degree of replication (Eq. 28): stored copies over the distinct data
   the live classes reference. *)
let replication (t : Dense.t) =
  let inst = t.Dense.inst in
  let used = Dense.Bits.create inst.Dense.n_frags in
  for c = 0 to inst.Dense.n_classes - 1 do
    if t.Dense.c_alive.(c) then Dense.iter_footprint inst c (Dense.Bits.set used)
  done;
  let mb = ref 0. in
  Dense.Bits.iter (fun f -> mb := !mb +. inst.Dense.frag_size.(f)) used;
  Dense.total_stored t /. !mb

type pass = {
  place_s : float;
  improve_s : float;
  repair_s : float;
  greedy_scale : float;
  final_scale : float;
  final_replication : float;
  stats : Incremental.stats;
  deltas : int;
  steps : int;
  step_failures : int;
  greedy_words : float;
  repair_words : float;
  improve_gc : Meter.gc;
}

let errors t = List.length (Diag.errors (Check.check_dense t))

let pass ~seed ~evolve ~domains inst =
  let steps = ref 0 and failures = ref 0 in
  let checked ok = incr steps; if not ok then incr failures in
  let (g, place_s), greedy_words =
    Meter.words (fun () -> Meter.time (fun () -> Meter.span "dense.greedy" (fun () -> Dense.greedy inst)))
  in
  checked (errors g = 0);
  let greedy_scale = Dense.scale g in
  let base, improve_s, improve_gc =
    if not evolve then (g, 0., Meter.no_gc)
    else begin
      let g0 = Meter.gc () in
      let m, t =
        Meter.time (fun () ->
            Meter.span "memetic_par.improve" (fun () ->
                Memetic_par.improve ~params:memetic ~domains ~seed g))
      in
      let gd = Meter.gc_diff g0 (Meter.gc ()) in
      checked (errors m = 0);
      checked (Dense.scale m <= greedy_scale +. Cdbs_core.Eps.assign);
      (m, t, gd)
    end
  in
  let deltas = Incremental.random_delta ~rng:(Rng.create (seed + 1)) ~frac:delta_frac base in
  (* [repair] consumes [base]. *)
  let ((final, stats), repair_s), repair_words =
    Meter.words (fun () ->
        Meter.time (fun () ->
            Meter.span "incremental.repair" (fun () -> Incremental.repair base deltas)))
  in
  checked (errors final = 0);
  Printf.printf "  pass: place %.3f s, improve %.3f s, repair %.3f s\n%!" place_s improve_s
    repair_s;
  {
    place_s; improve_s; repair_s; greedy_scale; final_scale = Dense.scale final;
    final_replication = replication final; stats; deltas = List.length deltas;
    steps = !steps; step_failures = !failures; greedy_words; repair_words; improve_gc;
  }

let pass_s p = p.place_s +. p.improve_s +. p.repair_s

(* Drop the previous pass's arrays before the next one, so every pass
   (and the peak RSS) starts from the same heap. *)
let settle () = Gc.compact ()

(* The measured passes run the memetic on one domain: with a second
   domain, any load elsewhere on the machine stalls the runtime's
   stop-the-world collections and halves the pass rate at random.  The
   traced run measures the parallel speed-up separately. *)
let domains = 1

let run ~evolve ~seed ~seconds ~trace =
  let size = if evolve then evolve_size else scale_size in
  (* A set-up sample builds the instance several times, each build timed
     alone from a settled heap; the sample is their mean. *)
  let builds = builds_per_setup size in
  let setup_times = ref [] and inst = ref None in
  for _ = 1 to setups do
    let total = ref 0. in
    for _ = 1 to builds do
      inst := None;
      settle ();
      let i, dt = Meter.time (fun () -> instance ~seed size) in
      total := !total +. dt;
      inst := Some i
    done;
    setup_times := (!total /. float_of_int builds) :: !setup_times
  done;
  let inst = Option.get !inst in
  let setup_s = Meter.median !setup_times in
  let n = float_of_int inst.Dense.n_frags in
  let run_pass () =
    settle ();
    pass ~seed ~evolve ~domains inst
  in
  (* The first pass is measured in both modes; its deterministic
     counters are the pinned ones. *)
  let first, first_wall = Meter.time run_pass in
  let pinned =
    [
      ("scale", Meter.exact first.final_scale);
      ("replication", Meter.exact first.final_replication);
      ("greedy_scale", Meter.exact first.greedy_scale);
      ("incremental.deltas", string_of_int first.deltas);
      ("incremental.moved_fragments", string_of_int first.stats.Incremental.moved_fragments);
      ("incremental.rebalance_fragments",
       string_of_int first.stats.Incremental.rebalance_fragments);
      ("moved_frac", Meter.exact (float_of_int first.stats.Incremental.moved_fragments /. n));
      ("gc.greedy_words", Meter.exact first.greedy_words);
      ("gc.repair_words", Meter.exact first.repair_words);
    ]
    @
    if evolve then [ ("gc.improve_minor_words", Meter.exact first.improve_gc.Meter.minor_words) ]
    else []
  in
  let outcome passes metrics =
    let sum f = List.fold_left (fun acc p -> acc + f p) 0 passes in
    let failed = sum (fun p -> p.step_failures) in
    {
      Meter.correct = failed = 0;
      attempted = sum (fun p -> p.steps);
      failed;
      metrics;
      pinned;
      domains;
    }
  in
  if not trace then begin
    let passes = first :: Meter.more_passes ~seconds ~first_s:first_wall run_pass in
    outcome passes
      [
        ("setup_s", setup_s);
        ("ops_per_s", n /. Meter.median (List.map pass_s passes));
        ("peak_rss_mb", Meter.peak_rss_mb ());
        ("scale", first.final_scale);
        ("replication", first.final_replication);
      ]
  end
  else begin
    (* A traced pass against an untraced one (the first pass also warms
       the heap up, so it is not the reference), then the micro-probes on
       a fresh greedy placement. *)
    let plain = run_pass () in
    Meter.tracing := true;
    let g0 = Meter.gc () in
    let p = run_pass () in
    let pass_gc = Meter.gc_diff g0 (Meter.gc ()) in
    settle ();
    let g = Meter.span "dense.greedy" (fun () -> Dense.greedy inst) in
    let copy_ms = 1000. *. Meter.median_time 3 (fun () -> Meter.span "dense.copy" (fun () -> Dense.copy g)) in
    let _, copy_words = Meter.words (fun () -> Dense.copy g) in
    let evolve_probes =
      if not evolve then []
      else begin
        let rng = Rng.create seed in
        let mutate () = Meter.span "dense.mutate" (fun () -> Dense.mutate rng g) in
        let mutate_s = Meter.median_time 20 mutate in
        let mutates = 20 in
        let _, words = Meter.words (fun () -> for _ = 1 to mutates do ignore (mutate ()) done) in
        let mutate_words = words /. float_of_int mutates in
        let cost_s =
          Meter.median_time ~calls:10_000 3 (fun () ->
              Meter.span "dense.cost" (fun () -> Dense.cost g))
        in
        let par = min memetic.Memetic_par.islands (Cdbs_util.Pool.available ()) in
        let par_s =
          Meter.median_time 3 (fun () ->
              Meter.span "memetic_par.improve_parallel" (fun () ->
                  Memetic_par.improve ~params:memetic ~domains:par ~seed g))
        in
        [
          ("improve_s", p.improve_s);
          ("dense.mutate_us", 1e6 *. mutate_s);
          ("dense.mutate_words", mutate_words);
          ("dense.cost_us", 1e6 *. cost_s);
          (* The optimizer does not report how many children it bred;
             its allocated words over one mutation's measure it in
             mutation-equivalents (copies and local search included). *)
          ("memetic_par.offspring", Meter.gc_allocated p.improve_gc /. mutate_words);
          ("memetic_par.scale_gain", p.greedy_scale -. p.final_scale);
          ("memetic_par.parallel_speedup", p.improve_s /. par_s);
          ("pool.domains", float_of_int par);
          ("gc.promoted_words", p.improve_gc.Meter.promoted_words);
        ]
      end
    in
    Meter.tracing := false;
    let major =
      if evolve then p.improve_gc.Meter.major_collections else pass_gc.Meter.major_collections
    in
    outcome [ first; plain; p ]
      ([
         ("place_s", p.place_s);
         ("repair_s", p.repair_s);
         ("moved_frac", float_of_int p.stats.Incremental.moved_fragments /. n);
         ("dense.synthetic_s", setup_s);
         ("dense.greedy_words_per_frag", p.greedy_words /. n);
         ("dense.copy_ms", copy_ms);
         ("dense.copy_words", copy_words);
         ("incremental.deltas", float_of_int p.deltas);
         ("incremental.moved_fragments", float_of_int p.stats.Incremental.moved_fragments);
         ("incremental.rebalance_fragments",
          float_of_int p.stats.Incremental.rebalance_fragments);
         ("incremental.repair_words", p.repair_words);
         ("incremental.repair_over_place", p.repair_s /. p.place_s);
         ("gc.major_collections", float_of_int major);
         ("trace.overhead_frac", 1. -. (pass_s plain /. pass_s p));
       ]
      @ evolve_probes)
  end
