(** Log-bucketed histograms for latency tracking.

    Values are non-negative integers (negative inputs clamp to 0) —
    typically microseconds.  Bucket 0 holds the value 0; bucket [i]
    holds [2^(i-1) .. 2^i - 1], so 63 buckets cover the whole [int]
    range and {!add} never saturates.  Memory is two 63-entry arrays
    per histogram, independent of sample count.

    Percentiles use the nearest-rank definition answered with the mean
    of the bucket the rank lands in: relative error is bounded by the
    bucket width (< 2x), and the answer is exact whenever all samples
    in that bucket are equal.

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

val merge : t -> t -> t
(** [merge a b] is a fresh histogram holding the samples of both —
    used to aggregate per-recorder or per-verb histograms.  [a] and [b]
    are unchanged. *)
