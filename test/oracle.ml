(* Reference FIFO cluster simulator, written without [Scheduler] or the
   event engine.  Reads go to the assigned (else holding) backend with the
   least pending work, the first minimum winning; updates fan out to every
   backend holding a touched fragment, split by [Protocol.plan].  Returns
   (responses in dispatch order, errors, makespan, per-backend busy). *)

open Cdbs_core
open Cdbs_cluster

let run ~open_mode (config : Simulator.config) alloc requests =
  let n = Allocation.num_backends alloc in
  let by_arrival (a : Request.t) (b : Request.t) = Float.compare a.arrival b.arrival in
  let requests = if open_mode then List.stable_sort by_arrival requests else requests in
  let free = Array.make n 0. and busy = Array.make n 0. in
  let frags = Allocation.fragments_of alloc and all = List.init n Fun.id in
  let errors = ref 0 and responses = ref [] in
  let dispatch (r : Request.t) (c : Query_class.t) =
    let now = if open_mode then r.arrival else 0. in
    let pending b = Float.max 0. (free.(b) -. now) in
    let min_pending m b = if pending b < pending m then b else m in
    let least = function [] -> [] | b :: bs -> [ List.fold_left min_pending b bs ] in
    let targets =
      if r.is_update then
        List.filter (fun b -> not (Fragment.Set.disjoint c.fragments (frags b))) all
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
      let serve b factor =
        let s =
          factor
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
      responses := (finish -. now) :: !responses
    end
  in
  let classes = Allocation.classes alloc in
  List.iter
    (fun (r : Request.t) ->
      match Array.find_opt (fun (c : Query_class.t) -> c.id = r.class_id) classes with
      | None -> incr errors
      | Some c -> dispatch r c)
    requests;
  (List.rev !responses, !errors, Array.fold_left Float.max 0. free, busy)
