(* sql-tpch: the real-data path.  A controller over a generated mini
   TPC-H database serves a seeded closed-loop stream (one client, each
   statement sent after the previous one returns) of the 19 TPC-H reads
   and point updates on orders/lineitem.  Every result is checked, outside
   the timed region, against a reference database built from the same
   data with the same writes applied. *)

module Rng = Cdbs_util.Rng
module Controller = Cdbs_cluster.Controller
module Tpch = Cdbs_workloads.Tpch
module Queries = Cdbs_workloads.Tpch_queries
module Database = Cdbs_storage.Database
module Datagen = Cdbs_storage.Datagen
module Executor = Cdbs_storage.Executor
module Schema = Cdbs_storage.Schema
module Table_stats = Cdbs_storage.Table_stats
module Value = Cdbs_storage.Value
module Classification = Cdbs_core.Classification
module Allocation = Cdbs_core.Allocation

let backends = 4

(* The row counts of the SQL unit tests' mini database, four times over
   (region and nation keep their fixed TPC-H cardinalities). *)
let rows =
  [
    ("region", 5); ("nation", 25); ("supplier", 120); ("customer", 240);
    ("part", 200); ("partsupp", 320); ("orders", 480); ("lineitem", 1200);
  ]

(* Statements of history before the reallocation. *)
let warmup = 400
let write_share = 0.25
(* The pinned prefix: always run, whatever the time. *)
let min_stmts = 300
let setups = 5
let schema_assoc = Schema.to_assoc Tpch.schema
let queries = Array.of_list (List.map snd Queries.all)

type stmt = { sql : string; table : string option  (** the written table *) }

let stream_rng seed = Rng.create ((seed * 7919) + 17)

let next_stmt rng =
  if Rng.float rng 1. < write_share then
    if Rng.bool rng then
      {
        sql =
          Printf.sprintf "UPDATE orders SET o_totalprice = %d.25 WHERE o_orderkey = %d"
            (Rng.int rng 100_000) (1 + Rng.int rng 480);
        table = Some "orders";
      }
    else
      {
        sql =
          Printf.sprintf "UPDATE lineitem SET l_quantity = %d.5 WHERE l_orderkey = %d"
            (1 + Rng.int rng 50) (1 + Rng.int rng 1200);
        table = Some "lineitem";
      }
  else { sql = Rng.pick rng queries; table = None }

(* Bootstrap, warm-up history and the first reallocation: everything
   before the first measured statement.  Returns the reallocation's
   seconds too. *)
let setup ~seed =
  let gen = stream_rng seed in
  let c =
    Meter.span "controller.create" (fun () ->
        Controller.create ~schema:Tpch.schema ~rows ~backends ~seed)
  in
  let history = List.init warmup (fun _ -> next_stmt gen) in
  let errors =
    List.fold_left
      (fun n s ->
        match Meter.span "controller.submit" (fun () -> Controller.submit c s.sql) with
        | Ok _ -> n
        | Error _ -> n + 1)
      0 history
  in
  let r, reallocate_s =
    Meter.time (fun () ->
        Meter.span "controller.reallocate" (fun () -> Controller.reallocate c ()))
  in
  (match r with
  | Ok _ -> ()
  | Error e -> failwith ("sql-tpch: reallocate failed: " ^ e));
  (c, gen, history, errors, reallocate_s)

(* The same data (Controller.create seeds Datagen with [seed]) and the
   warm-up's writes, applied in order.  Returns the populate seconds. *)
let reference ~seed history =
  let db = Database.create Tpch.schema in
  let (), populate_s =
    Meter.time (fun () ->
        Meter.span "datagen.populate" (fun () ->
            Datagen.populate (Rng.create seed) db ~rows_per_table:rows))
  in
  List.iter
    (fun s -> if s.table <> None then ignore (Executor.execute_sql db s.sql))
    history;
  (db, populate_s)

let compare_rows a b =
  let n = min (Array.length a) (Array.length b) in
  let rec go i =
    if i = n then compare (Array.length a) (Array.length b)
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* Equal as multisets of rows (and equal column lists / row counts). *)
let same_result got expect =
  match (got, expect) with
  | Ok (Executor.Rows g), Ok (Executor.Rows e) ->
      g.columns = e.columns
      && List.equal
           (fun a b -> compare_rows a b = 0)
           (List.sort compare_rows g.rows)
           (List.sort compare_rows e.rows)
  | Ok (Executor.Affected a), Ok (Executor.Affected b) -> a = b
  | _ -> false

type loop = {
  mutable n : int;
  mutable submit_s : float;
  mutable reads : float list;  (** submit seconds *)
  mutable writes : float list;
  mutable mismatches : int;
  mutable errors : int;
  mutable prefix_words : float;  (** words allocated by the first submits *)
  mutable prefix_writes : int;
  mutable prefix_fanout : int;  (** executions those writes fanned out to *)
  (* per-layer samples of the reference check, reported when traced *)
  mutable overhead : float list;
  mutable parse : float list;
  mutable analyze : float list;
  mutable exec_read : float list;
  mutable exec_write : float list;
  mutable stats : float list;
}

let new_loop () =
  {
    n = 0; submit_s = 0.; reads = []; writes = []; mismatches = 0;
    errors = 0; prefix_words = 0.; prefix_writes = 0; prefix_fanout = 0;
    overhead = []; parse = []; analyze = []; exec_read = []; exec_write = [];
    stats = [];
  }

(* ROWA fan-out of a write: the master copy plus every backend holding
   the table. *)
let fanout c table =
  1
  + List.length
      (List.filter (List.mem table) (Controller.backend_tables c))

(* One closed-loop statement: submit (timed), then the reference check.
   The check parses, analyzes and executes the statement on the reference
   database, a standalone engine holding the same data, one call at a
   time: the same calls time those layers without the controller, and the
   traced run reports the samples. *)
let step c ref_db gen l =
  let s = next_stmt gen in
  let submit () =
    Meter.time (fun () ->
        Meter.span "controller.submit" (fun () -> Controller.submit c s.sql))
  in
  let got, dt =
    if l.n >= min_stmts then submit ()
    else begin
      (* The pinned prefix counts each submit's words exactly. *)
      let r, w = Meter.words submit in
      l.prefix_words <- l.prefix_words +. w;
      r
    end
  in
  if l.n < min_stmts then begin
    match s.table with
    | Some t ->
        l.prefix_writes <- l.prefix_writes + 1;
        l.prefix_fanout <- l.prefix_fanout + fanout c t
    | None -> ()
  end;
  l.n <- l.n + 1;
  l.submit_s <- l.submit_s +. dt;
  if s.table <> None then l.writes <- dt :: l.writes
  else l.reads <- dt :: l.reads;
  (match got with Error _ -> l.errors <- l.errors + 1 | Ok _ -> ());
  let stmt, tp =
    Meter.time (fun () ->
        Meter.span "parser.parse" (fun () -> Cdbs_sql.Parser.parse s.sql))
  in
  let _, ta =
    Meter.time (fun () ->
        Meter.span "analyze.footprint" (fun () ->
            Cdbs_sql.Analyze.footprint_of_statement ~schema:schema_assoc stmt))
  in
  let expect, te =
    Meter.time (fun () ->
        Meter.span "executor.execute" (fun () -> Executor.execute ref_db stmt))
  in
  l.parse <- tp :: l.parse;
  l.analyze <- ta :: l.analyze;
  (match s.table with
  | Some t ->
      l.exec_write <- te :: l.exec_write;
      (* The write invalidated the controller's cached statistics for [t];
         this is the rescan its next read pays. *)
      let tbl = Database.table_exn ref_db t in
      let _, ts =
        Meter.time (fun () ->
            Meter.span "table_stats.collect" (fun () -> Table_stats.collect tbl))
      in
      l.stats <- ts :: l.stats
  | None ->
      l.exec_read <- te :: l.exec_read;
      l.overhead <- (dt -. tp -. ta -. te) :: l.overhead);
  if not (same_result got expect) then l.mismatches <- l.mismatches + 1

let run_loop c ref_db gen ~seconds =
  let l = new_loop () in
  let t_end = Meter.now () +. seconds in
  while l.n < min_stmts || Meter.now () < t_end do
    step c ref_db gen l
  done;
  l

let ms x = 1000. *. x
let us x = 1e6 *. x
let rate l = float_of_int l.n /. l.submit_s

let run ~seed ~seconds ~trace =
  Meter.tracing := trace;
  (* Only the last set-up is kept: earlier controllers are garbage before
     the next one is built, so they do not count toward the peak RSS. *)
  let last = ref None in
  let setup_times =
    List.init setups (fun _ ->
        last := None;
        Gc.compact ();
        Meter.recorded := [];
        let r, dt = Meter.time (fun () -> setup ~seed) in
        last := Some r;
        dt)
  in
  let setup_s = Meter.median setup_times in
  let c, gen, history, warm_errors, reallocate_s = Option.get !last in
  let ref_db, populate_s = reference ~seed history in
  let alloc = Option.get (Controller.allocation c) in
  let scale = Allocation.scale alloc in
  let replication = Cdbs_core.Replication.degree alloc in
  (* The first loop starts right after set-up in both modes, so its
     prefix is the same statements on the same state: its counters are
     the pinned ones. *)
  Meter.tracing := false;
  let first = run_loop c ref_db gen ~seconds:(if trace then seconds /. 2. else seconds) in
  let words_per_stmt = first.prefix_words /. float_of_int min_stmts in
  let rowa_fanout =
    float_of_int first.prefix_fanout /. float_of_int (max 1 first.prefix_writes)
  in
  let outcome loops metrics =
    let sum f = List.fold_left (fun acc l -> acc + f l) 0 loops in
    let mismatches = sum (fun l -> l.mismatches) in
    let failed = sum (fun l -> l.errors) + mismatches + warm_errors in
    {
      Meter.correct = failed = 0;
      attempted = sum (fun l -> l.n) + warmup;
      failed;
      metrics;
      pinned =
        [
          ("gc.words_per_stmt", Meter.exact words_per_stmt);
          ("controller.rowa_fanout", Meter.exact rowa_fanout);
          ("scale", Meter.exact scale);
          ("replication", Meter.exact replication);
        ];
      domains = 1;
    }
  in
  if not trace then
    outcome [ first ]
      [
        ("setup_s", setup_s);
        ("ops_per_s", rate first);
        ("peak_rss_mb", Meter.peak_rss_mb ());
        ("scale", scale);
        ("replication", replication);
      ]
  else begin
    (* Traced second half: its throughput against the untraced first
       half's is the tracing overhead. *)
    Meter.tracing := true;
    let size_of = Classification.default_sizes ~schema:Tpch.schema ~rows in
    let classify_s =
      Meter.median_time 5 (fun () ->
          Meter.span "classification.classify" (fun () ->
              Classification.classify ~schema:Tpch.schema ~size_of
                Classification.By_table (Controller.journal c)))
    in
    let g0 = Meter.gc () in
    let l = run_loop c ref_db gen ~seconds:(seconds /. 2.) in
    let gd = Meter.gc_diff g0 (Meter.gc ()) in
    Meter.tracing := false;
    outcome [ first; l ]
      [
        ("stmts_per_s", rate l);
        ("trace.overhead_frac", 1. -. (rate l /. rate first));
        ("read_p50_ms", ms (Meter.pct 50. l.reads));
        ("read_p99_ms", ms (Meter.pct 99. l.reads));
        ("write_p50_ms", ms (Meter.pct 50. l.writes));
        ("write_p99_ms", ms (Meter.pct 99. l.writes));
        ("datagen.populate_s", populate_s);
        ("classification.classify_ms", ms classify_s);
        ("controller.reallocate_s", reallocate_s);
        ("parser.parse_us", us (Meter.median l.parse));
        ("analyze.footprint_us", us (Meter.median l.analyze));
        ("executor.read_p50_ms", ms (Meter.pct 50. l.exec_read));
        ("executor.read_p99_ms", ms (Meter.pct 99. l.exec_read));
        ("executor.write_ms", ms (Meter.median l.exec_write));
        ("table_stats.collect_ms", ms (Meter.median l.stats));
        ("controller.overhead_us", us (Meter.median l.overhead));
        ("controller.rowa_fanout", rowa_fanout);
        ("gc.words_per_stmt", words_per_stmt);
        ("gc.major_collections", float_of_int gd.Meter.major_collections);
      ]
  end
