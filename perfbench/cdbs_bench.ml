(* The CDBS benchmark: one workload per process.

   cdbs_bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--rev REV]
   cdbs_bench.exe --catalog

   Untraced (--trace 0) the run reports every end-to-end metric; traced
   (--trace 1) every per-layer metric, and the spans of the traced calls
   go to perfbench/out/spans-NAME-seedN.jsonl.  Before the result, the
   run prints its metadata and its pinned deterministic counters, one
   JSON object per line.  The last line is the result object; the exit
   code is 1 when a correctness check failed. *)

let workloads =
  [
    ("day", Day.run);
    ("alloc-scale", Alloc.run ~evolve:false);
    ("alloc-evolve", Alloc.run ~evolve:true);
    ("sql-tpch", Sql.run);
  ]

let json_str s = Printf.sprintf "%S" s

(* Numbers with all their digits; non-finite values become null. *)
let json_num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> json_str k ^ ":" ^ v) fields) ^ "}"

let print_catalog () =
  List.iter
    (fun (kind, ms) ->
      List.iter
        (fun (m : Catalog.metric) ->
          Printf.printf "%s %s %s %s %s\n" kind m.name m.unit_ m.better
            (match m.bound with Some b -> Printf.sprintf "%g" b | None -> "-"))
        ms)
    [ ("end_to_end", Catalog.end_to_end); ("per_layer", Catalog.per_layer) ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and rev = ref "unknown" and catalog = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--rev", Arg.Set_string rev, "REV source revision, for the report");
      ("--catalog", Arg.Set catalog, " print the metric catalogue");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "cdbs_bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !catalog then (print_catalog (); exit 0);
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
        prerr_endline
          ("unknown workload " ^ json_str !workload ^ "; one of: "
          ^ String.concat ", " (List.map fst workloads));
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
  let traced = !trace = 1 in
  let o = run ~seed:!seed ~seconds:!seconds ~trace:traced in
  let catalog = if traced then Catalog.per_layer else Catalog.end_to_end in
  (* Every catalogue metric is reported; a layer this workload does not
     exercise did no work and reads 0. *)
  let value (m : Catalog.metric) =
    match List.assoc_opt m.name o.Meter.metrics with Some v -> v | None -> 0.
  in
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun (m : Catalog.metric) -> m.name = name) catalog) then
        failwith ("metric outside the catalogue: " ^ name))
    o.Meter.metrics;
  print_endline
    (obj
       [
         ( "meta",
           obj
             [
               ("workload", json_str !workload);
               ("seed", string_of_int !seed);
               ("seconds", json_num !seconds);
               ("trace", string_of_int !trace);
               ("rev", json_str !rev);
               ("ocaml", json_str Sys.ocaml_version);
               ("nproc", string_of_int (Domain.recommended_domain_count ()));
               ("domains", string_of_int o.Meter.domains);
             ] );
       ]);
  List.iter
    (fun (m : Catalog.metric) -> Printf.printf "  %-34s %16.6g %s\n" m.name (value m) m.unit_)
    catalog;
  if traced then begin
    let path =
      Printf.sprintf "perfbench/out/spans-%s-seed%d.jsonl" !workload !seed
    in
    Meter.write_spans path;
    Printf.printf "  spans: %d written to %s\n  %-34s %8s %12s %12s %14s\n"
      (List.length !Meter.recorded) path "span" "calls" "total_s" "self_s" "words";
    List.iter
      (fun (name, (t : Meter.span_total)) ->
        Printf.printf "  %-34s %8d %12.6f %12.6f %14.0f\n" name t.calls t.total_s
          t.self_s t.words)
      (Meter.span_totals ())
  end;
  print_endline
    (obj [ ("pinned", obj (List.map (fun (k, v) -> (k, json_str v)) o.Meter.pinned)) ]);
  print_endline
    (obj
       [
         ("correct", string_of_bool o.Meter.correct);
         ("attempted", string_of_int o.Meter.attempted);
         ("failed", string_of_int o.Meter.failed);
         ( "metrics",
           obj
             (List.map
                (fun (m : Catalog.metric) ->
                  ( m.name,
                    obj [ ("value", json_num (value m)); ("unit", json_str m.unit_) ] ))
                catalog) );
       ]);
  if not o.Meter.correct then exit 1
