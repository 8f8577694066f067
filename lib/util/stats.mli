(** Small descriptive-statistics helpers used by the simulator and the
    benchmark harness. *)

val mean : float list -> float
(** Arithmetic mean; 0 for the empty list. *)

val stdev : float list -> float
(** Population standard deviation; 0 for lists shorter than 2. *)

val minimum : float list -> float
val maximum : float list -> float

val percentiles : float list -> float list -> float list
(** [percentiles ps xs]: for each [p] in [ps] (in [0,100]), the
    nearest-rank percentile of [xs] — the [ceil (p/100 * n)]-th smallest
    value, clamped into [1, n].  One sort serves every [p].
    @raise Invalid_argument on an empty [xs]. *)

val percentile : float -> float list -> float
(** [percentile p xs] is [percentiles [p] xs].
    @raise Invalid_argument on an empty list. *)

val relative_deviation : float list -> float
(** Mean absolute deviation from the mean, relative to the mean — the
    "deviation from balance" measure plotted in Fig. 4(j). 0 when the mean
    is 0. *)

val histogram : bins:int -> lo:float -> hi:float -> float list -> int array
(** Fixed-width histogram; values outside [lo, hi] clamp to the end bins. *)
