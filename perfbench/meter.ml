(* Measurement primitives shared by the workloads: wall clock, peak RSS,
   GC counters, percentiles, and the in-memory span recorder used by the
   traced run. *)

let now = Unix.gettimeofday

(* Peak resident set of this process (VmHWM), in MB.  Each workload runs
   in its own process, so the figure belongs to that workload alone. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> nan
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf
          (String.sub line 6 (String.length line - 6))
          " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* [time f] runs [f] and returns its result with the wall seconds taken. *)
let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Nearest-rank percentile, the repository's single implementation. *)
let pct p xs = match xs with [] -> nan | _ -> Cdbs_util.Stats.percentile p xs
let median xs = pct 50. xs

(* Median over [reps] samples of the wall seconds per call of [f], each
   sample timing [calls] calls in a row (enough of them to rise well
   above the clock's microsecond resolution). *)
let median_time ?(calls = 1) reps f =
  let sample () =
    snd (time (fun () -> for _ = 1 to calls do ignore (Sys.opaque_identity (f ())) done))
  in
  median (List.init (max 1 reps) (fun _ -> sample () /. float_of_int calls))

(* The rest of a measured phase whose first pass took [first_s] wall
   seconds: as many more passes as bring the phase nearest to [seconds].
   The count comes from the first pass's length, not from a deadline, so
   runs land on the same count (and the same peak RSS) instead of
   straddling it. *)
let more_passes ~seconds ~first_s pass =
  let n = max 1 (int_of_float (Float.round (seconds /. first_s))) in
  List.init (n - 1) (fun _ -> pass ())

(** {1 GC counters} *)

type gc = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  major_collections : int;
}

(* Words come from the calling domain's own counters: the runtime folds
   other domains' counters into the global totals whenever they exit, which
   would make a parallel section's words leak into whatever is measured
   next.  The minor heap is emptied first: read mid-heap, the counters of
   an identical computation jitter by up to 7/8 of a minor heap. *)
let gc () =
  Gc.minor ();
  let minor_words, promoted_words, major_words = Gc.counters () in
  {
    minor_words;
    promoted_words;
    major_words;
    major_collections = (Gc.quick_stat ()).Gc.major_collections;
  }

let no_gc = { minor_words = 0.; promoted_words = 0.; major_words = 0.; major_collections = 0 }

let gc_diff a b =
  {
    minor_words = b.minor_words -. a.minor_words;
    promoted_words = b.promoted_words -. a.promoted_words;
    major_words = b.major_words -. a.major_words;
    major_collections = b.major_collections - a.major_collections;
  }

(* Words allocated over a {!gc_diff}: minor heap plus direct major
   allocations. *)
let gc_allocated g = g.minor_words +. g.major_words -. g.promoted_words

(* Words the calling domain has allocated so far: minor heap plus direct
   major allocations.  Exact only at an empty minor heap (see {!gc}). *)
let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Words allocated by [f], exactly, with its result. *)
let words f =
  Gc.minor ();
  let w0 = allocated () in
  let r = f () in
  Gc.minor ();
  (r, allocated () -. w0)

(** {1 Spans}

    A span covers one call into a layer: name, start, end, parent and the
    words allocated inside it.  Spans stay in memory until {!write_spans};
    recording is off unless {!tracing} is set, so the untraced run pays
    one branch per call. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  name : string;
  t0 : float;
  mutable t1 : float;
  w0 : float;
  mutable w1 : float;
}

let tracing = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let open_span = ref (-1)

let span name f =
  if not !tracing then f ()
  else begin
    let s =
      {
        id = !next_id;
        parent = !open_span;
        name;
        t0 = now ();
        t1 = nan;
        w0 = allocated ();
        w1 = nan;
      }
    in
    incr next_id;
    recorded := s :: !recorded;
    open_span := s.id;
    let close () =
      s.t1 <- now ();
      s.w1 <- allocated ();
      open_span := s.parent
    in
    match f () with
    | r ->
        close ();
        r
    | exception e ->
        close ();
        raise e
  end

type span_total = { calls : int; total_s : float; self_s : float; words : float }

(* Per span name: call count, total time, self time (duration minus the
   time covered by direct children — children nest, so they never
   overlap) and words allocated. *)
let span_totals () =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          ((try Hashtbl.find child_time s.parent with Not_found -> 0.)
          +. (s.t1 -. s.t0)))
    !recorded;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      let self = d -. (try Hashtbl.find child_time s.id with Not_found -> 0.) in
      let acc =
        try Hashtbl.find by_name s.name
        with Not_found -> { calls = 0; total_s = 0.; self_s = 0.; words = 0. }
      in
      Hashtbl.replace by_name s.name
        {
          calls = acc.calls + 1;
          total_s = acc.total_s +. d;
          self_s = acc.self_s +. self;
          words = acc.words +. (s.w1 -. s.w0);
        })
    !recorded;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []
  |> List.sort (fun (_, a) (_, b) -> compare b.total_s a.total_s)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* One JSON object per span, in start order. *)
let write_spans path =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start_s\":%.9f,\"end_s\":%.9f,\"words\":%.0f}\n"
        s.id s.parent s.name s.t0 s.t1 (s.w1 -. s.w0))
    (List.rev !recorded);
  close_out oc

(** {1 Workload outcome} *)

type outcome = {
  correct : bool;
  attempted : int;  (** operations the run issued *)
  failed : int;  (** operations that failed or failed their check *)
  metrics : (string * float) list;
      (** end-to-end metrics untraced, per-layer metrics traced *)
  pinned : (string * string) list;
      (** deterministic counters: equal seeds must reproduce them exactly *)
  domains : int;  (** domains the workload actually ran on *)
}

(* A float rendered with every digit, so pinned values compare exactly. *)
let exact x = Printf.sprintf "%.17g" x
