(** Least-pending-request-first scheduling (paper Sec. 2).

    The controller keeps a queue per backend.  A read goes to the eligible
    backend (one holding all of its class's data) with the least pending
    work; an update is enqueued on {e every} backend holding any of its
    referenced data (read-once/write-all). *)

type t

val create : Cdbs_core.Allocation.t -> t
(** Scheduler over the allocation's placement.  Eligibility derives from
    the fragment sets, so a zero-weight k-safety replica also serves its
    class. *)

val create_dynamic :
  Cdbs_core.Allocation.t -> live:Cdbs_core.Fragment.Set.t array -> t
(** Scheduler for a placement in motion (live migration): [live] lists the
    fragments each physical node serves {e right now} and may be longer
    than the allocation's backend count (decommissioning / fresh nodes).
    Routing uses the live sets only — the allocation supplies the query
    classes; its assignment weights describe the target, not the present,
    and are ignored.  Use {!add_live} / {!remove_live} at cutover and drop
    events. *)

val num_nodes : t -> int
(** Physical nodes under management ([= Array.length live]). *)

val live_fragments : t -> backend:int -> Cdbs_core.Fragment.Set.t
val add_live : t -> backend:int -> Cdbs_core.Fragment.Set.t -> unit
val remove_live : t -> backend:int -> Cdbs_core.Fragment.Set.t -> unit

val live_replicas : t -> Cdbs_core.Query_class.t -> int
(** Up, caught-up nodes whose live set contains every fragment of the
    class — the replicas a read can actually land on right now. *)

val targets_for_update : t -> Cdbs_core.Query_class.t -> int list
(** Backends an update of the class must be applied on (ROWA): every up
    node — stale ones included — whose live set holds any of the class's
    fragments, in backend order.  [[]] when no live replica holds the
    data. *)

val find_class : t -> string -> Cdbs_core.Query_class.t option
(** Indexed class lookup — callers on a per-request hot path use this
    instead of scanning the allocation's class array.  [None] for an
    unknown class, which no backend can serve. *)

val best_read_target :
  ?healthy:(int -> bool) ->
  ?exclude:int ->
  t ->
  now:float ->
  Cdbs_core.Query_class.t ->
  int option
(** The backend a read of this class goes to: among the read candidates,
    the one with the least pending work (the first such backend on a tie),
    or [None] when no backend can serve it.  Computed in two indexed passes
    with no intermediate lists.

    The candidates are the up, caught-up backends the allocation assigned
    the class to; only when there are none, every up, caught-up backend
    holding the class's data (k-safety standby replicas).  A dynamic
    scheduler uses the live fragment sets alone.

    [healthy] is an optional routing filter (e.g. a circuit breaker's
    [allows]): candidates failing it are steered around — but if {e every}
    candidate fails it the filter is ignored (fail open), since a slow
    replica still beats an unavailable answer.  Updates are never
    filtered.  [exclude] removes one backend from the final selection only
    (for hedged second dispatches); the fail-open decision still counts
    it.  Pending work bookkeeping is updated by {!book}. *)

val book : t -> backend:int -> finish:float -> unit
(** Record that the backend's queue now drains at [finish]. *)

val pending : t -> backend:int -> now:float -> float
(** Remaining queued work (seconds) on the backend at time [now]. *)

val free_at : t -> backend:int -> float
(** Time at which the backend's queue is empty. *)

val set_down : t -> backend:int -> unit
(** Mark a backend as failed: it receives no further work.  Reads fall back
    to any surviving backend holding their class's data (k-safety standby
    replicas, Appendix C); updates skip the dead replica.  Clears any stale
    flag — a down backend is simply down. *)

val set_up : ?stale:bool -> t -> backend:int -> unit
(** Rejoin a backend (the dual of {!set_down}).  With [~stale:true] it
    rejoins in catch-up mode: it takes updates (so its replicas stop
    falling further behind) but serves no reads until {!set_stale} clears
    the flag — the crash/recover lifecycle's re-admission gate. *)

val set_stale : t -> backend:int -> stale:bool -> unit
(** Flip the catch-up flag of an up backend.
    @raise Invalid_argument when the backend is down. *)

val is_up : t -> backend:int -> bool

val is_stale : t -> backend:int -> bool
(** Up but still replaying missed updates: excluded from reads,
    included in update fan-out. *)
