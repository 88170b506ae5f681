(** Log-bucketed histograms for latency tracking.

    Values are non-negative integers (negative inputs clamp to 0) —
    typically microseconds.  Bucket 0 holds the value 0; bucket [i >= 1]
    holds the integers v with 2^((i-1)/4) <= v < 2^(i/4), four buckets
    per octave, so 253 buckets cover the whole [int] range and {!add}
    never saturates.  Memory is two 253-entry arrays per histogram,
    independent of sample count.

    Percentiles use the nearest-rank definition answered with the mean
    of the bucket the rank lands in: the relative error is below the
    bucket width, 2^(1/4) - 1 < 18.9 %, and the answer is exact whenever
    all samples in that bucket are equal.

    Instances are thread-safe (one internal mutex); the serve daemon
    shares one histogram per verb across all connection threads. *)

type t

val create : unit -> t
(** An empty histogram. *)

val add : t -> int -> unit
(** Record one sample. *)

val count : t -> int
(** Number of samples recorded. *)

val percentile : t -> float -> int
(** [percentile t p] for [p] in [0..100]: the nearest-rank percentile,
    estimated as the mean of the rank's bucket.  [percentile t 50.0] is
    the median estimate; 0 when empty. *)

