(* Reference FIFO cluster simulator, written without [Scheduler] or the
   event engine.  Reads go to the assigned (else holding) backend with the
   least pending work, the first minimum winning; updates fan out to every
   backend holding a touched fragment, split by [Protocol.plan].  With a
   [migration], nodes start on the plan's old sets and route by live sets;
   steps due by an arrival apply first (copy opens a delta capture, cutover
   replays it on the destination and adds the fragment, the barrier drops);
   a copy's source and destination serve 1.25x slower.  Returns
   ((arrival, response) in dispatch order, errors, makespan, per-backend
   busy, (replayed MB, per-class fewest live replicas, target deployed)). *)

open Cdbs_core
open Cdbs_cluster
module Schedule = Cdbs_migration.Schedule

let run ?migration ~open_mode (config : Simulator.config) alloc requests =
  let live = match migration with
    | Some (s : Schedule.t) -> Array.copy s.plan.old_sets
    | None -> Array.init (Allocation.num_backends alloc) (Allocation.fragments_of alloc) in
  let n = Array.length live in
  let by_arrival (a : Request.t) (b : Request.t) = Float.compare a.arrival b.arrival in
  let requests = if open_mode then List.stable_sort by_arrival requests else requests in
  let free = Array.make n 0. and busy = Array.make n 0. in
  let frags b = live.(b) and all = List.init n Fun.id in
  let errors = ref 0 and responses = ref [] and replayed = ref 0. and captures = ref [] in
  let classes = Allocation.classes alloc in
  let serves (c : Query_class.t) b = Fragment.Set.subset c.fragments live.(b) in
  let count c = List.length (List.filter (serves c) all) in
  let min_live = Array.map count classes in
  let cut (m : Cdbs_migration.Planner.move) t () =
    let mine (d, k, _) = d = m.dest && k = m.fragment.kind in
    let mb = List.fold_left (fun a ((_, _, v) as c) -> if mine c then !v else a) 0. !captures in
    captures := List.filter (fun c -> not (mine c)) !captures;
    let replay = mb *. config.cost.scan_seconds_per_mb /. config.speeds.(m.dest) in
    if mb > 0. then free.(m.dest) <- Float.max t free.(m.dest) +. replay;
    busy.(m.dest) <- busy.(m.dest) +. replay;
    replayed := !replayed +. mb;
    live.(m.dest) <- Fragment.Set.add m.fragment live.(m.dest) in
  let steps = ref @@ match migration with
    | None -> []
    | Some s -> List.stable_sort (fun (t, r, _) (t', r', _) -> compare (t, r) (t', r'))
        ((s.drops_at, 2, fun () -> List.iter (fun (d : Cdbs_migration.Planner.drop) ->
              live.(d.at_backend) <- Fragment.Set.remove d.victim live.(d.at_backend)) s.plan.drops)
         :: List.concat_map (fun (tm : Schedule.timed_move) ->
             [ (tm.start, 0, fun () -> captures := (tm.move.dest, tm.move.fragment.kind, ref 0.) :: !captures);
               (tm.finish, 1, cut tm.move tm.finish) ]) s.moves) in
  let rec apply_until now = match !steps with
    | (t, _, step) :: rest when t <= now ->
        steps := rest;
        step ();
        Array.iteri (fun i c -> min_live.(i) <- min min_live.(i) (count c)) classes;
        apply_until now
    | _ -> () in
  let dispatch (r : Request.t) (c : Query_class.t) =
    let now = if open_mode then r.arrival else 0. in
    apply_until now;
    let pending b = Float.max 0. (free.(b) -. now) in
    let min_pending m b = if pending b < pending m then b else m in
    let least = function [] -> [] | b :: bs -> [ List.fold_left min_pending b bs ] in
    let targets =
      if r.is_update then
        List.filter (fun b -> not (Fragment.Set.disjoint c.fragments (frags b))) all
      else if migration <> None then least (List.filter (serves c) all)
      else
        match List.filter (fun b -> Allocation.get_assign alloc b c > 0.) all with
        | [] -> least (List.filter (fun b -> Allocation.holds alloc b c) all)
        | assigned -> least assigned
    in
    if targets = [] then incr errors
    else begin
      let split =
        if r.is_update then Protocol.plan config.protocol ~targets
        else { Protocol.sync = targets; async = [] }
      in
      let mb = Option.value r.cost_mb ~default:(Query_class.size c) in
      let per = mb /. float_of_int (max 1 (Fragment.Set.cardinal c.fragments)) in
      if r.is_update then
        Fragment.Set.iter (fun (f : Fragment.t) -> List.iter (fun (_, k, v) ->
            if k = f.kind then v := !v +. per) !captures) c.fragments;
      let serve b factor =
        let copying = match migration with
          | Some s -> Schedule.copying s ~backend:b ~at:now | None -> false in
        let s =
          factor *. (if copying then 1.25 else 1.)
          *. Cost_model.service_time config.cost ~class_mb:mb
               ~resident_mb:(Fragment.set_size (frags b)) ~speed:config.speeds.(b)
               ~is_update:r.is_update ~replicas:(List.length split.sync)
        in
        free.(b) <- Float.max now free.(b) +. s;
        busy.(b) <- busy.(b) +. s;
        free.(b)
      in
      let finish = List.fold_left (fun f b -> Float.max f (serve b 1.)) now split.sync in
      List.iter (fun (b, f) -> ignore (serve b f)) split.async;
      responses := (now, finish -. now) :: !responses
    end
  in
  List.iter
    (fun (r : Request.t) ->
      match Array.find_opt (fun (c : Query_class.t) -> c.id = r.class_id) classes with
      | None -> incr errors
      | Some c -> dispatch r c)
    requests;
  apply_until infinity;
  let deployed = match migration with
    | Some s -> Array.for_all2 Fragment.Set.equal live s.plan.target_sets | None -> true in
  ( List.rev !responses, !errors, Array.fold_left Float.max 0. free, busy,
    (!replayed, List.mapi (fun i (c : Query_class.t) -> (c.id, min_live.(i)))
        (Array.to_list classes), deployed) )

let bit_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* An engine outcome against an oracle run: equal counts and bit-equal
   floats, percentiles by nearest rank (the ceil(p/100 * n)-th smallest),
   the mean summed in dispatch order. *)
let matches (o : Simulator.outcome) (responses, errors, makespan, busy, _) =
  let rs = List.map snd responses in
  let completed = List.length rs in
  let sorted = Array.of_list rs in
  Array.sort Float.compare sorted;
  let pct p =
    if completed = 0 then 0.
    else
      let rank = int_of_float (ceil (p /. 100. *. float_of_int completed)) in
      sorted.(max 0 (min (completed - 1) (rank - 1)))
  in
  let avg = if completed = 0 then 0. else List.fold_left ( +. ) 0. rs /. float_of_int completed in
  o.completed = completed && o.errors = errors
  && bit_equal o.makespan makespan && bit_equal o.avg_response avg
  && bit_equal o.max_response (List.fold_left (fun m r -> if r > m then r else m) 0. rs)
  && bit_equal o.p50_response (pct 50.) && bit_equal o.p95_response (pct 95.)
  && bit_equal o.p99_response (pct 99.)
  && Array.length o.busy = Array.length busy && Array.for_all2 bit_equal o.busy busy
