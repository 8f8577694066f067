(* Test probe over the scheduler's one read-routing function. *)

module Scheduler = Cdbs_cluster.Scheduler

(* Every backend [Scheduler.best_read_target] may pick for [c], ascending.
   Each pick is pushed behind all others by booking ever-later finishes,
   so the next call returns a not-yet-picked candidate until none is left;
   the queues are restored afterwards. *)
let read_candidates ?healthy sched c =
  let n = Scheduler.num_nodes sched in
  let saved = Array.init n (fun b -> Scheduler.free_at sched ~backend:b) in
  let rec go picked =
    match Scheduler.best_read_target ?healthy sched ~now:0. c with
    | Some b when not (List.mem b picked) ->
        Scheduler.book sched ~backend:b
          ~finish:(1e9 *. float_of_int (List.length picked + 1));
        go (b :: picked)
    | _ -> picked
  in
  let picked = go [] in
  Array.iteri (fun b finish -> Scheduler.book sched ~backend:b ~finish) saved;
  List.sort Int.compare picked
