(** A content-addressed memo store: digest keys to compiled results.

    The pipeline recompiles identical content constantly — every
    repeated [scc] run of the same source re-places and re-checks the
    same netlist.  A store maps a {e content digest} (MD5 of a
    canonical serialization of a pass's input) to that pass's result:
    the stage cache of {!Sc_pipeline.Pipeline} keeps one store per
    pass.

    In memory the store is a bounded LRU (least-recently-used entries
    evicted at [capacity]).  With [~dir] it also persists: every insert
    writes [dir/<shard>/<name>-<digest>] (the shard is the first two
    characters of the digest, so concurrent writers spread over
    subdirectories), and a miss consults the directory before
    recomputing, so results survive the process — a second
    [scc compile pdp8 --stage-cache d] skips compilation entirely.  Disk
    values go through [Marshal] behind a magic + format-version header;
    an entry written by an older build (or a torn/foreign file) reads
    back as a miss — counted as ["cache.<name>.stale"] — never as
    garbage.  A directory is trusted input exactly like the source tree
    it caches for.  Writes are safe under concurrent writers, including
    separate processes: each goes to a unique temp name
    ([.tmp.<pid>.<seq>]) and lands with one atomic rename.

    Stores are domain-safe (one mutex each); a value is computed
    outside the lock, between a {!lookup} and its {!add}, so two
    domains may race to compute the same key — both results are equal
    by construction and the second insert is a no-op.  Cache effectiveness is reported to
    {!Sc_obs.Obs} as ["cache.<name>.hit"] / ["cache.<name>.disk_hit"] /
    ["cache.<name>.miss"] / ["cache.<name>.eviction"], so [--stats]
    tables and [Sc_metrics] snapshots show it; {!stats} exposes the
    same counts programmatically. *)

type 'a t

val create :
  ?capacity:int ->
  ?dir:string ->
  name:string ->
  unit ->
  'a t
(** [create ~name ()] — an empty store.  [capacity] bounds the
    in-memory entry count (default 256; at least 1).  [dir] enables
    on-disk persistence (created if missing).  The disk tier is
    unbounded: nothing in the store deletes a persisted entry, so
    pruning the directory is left to whoever owns it. *)

val digest : string -> string
(** MD5 of a canonical byte string, in hex — the content address. *)

val lookup : 'a t -> string -> [ `Memory of 'a | `Disk of 'a | `Absent ]
(** Value-level lookup that distinguishes where the hit came from.
    [`Memory] refreshes recency and counts a hit; [`Disk] loads the
    value into memory and counts a disk hit; [`Absent] counts nothing —
    pair with {!add} to record the miss once the value is computed.
    This is the store's API: callers that must keep errors out of
    the store (see {!Sc_pipeline.Pipeline}) probe with [lookup] and
    only {!add} successful results, with no exception round-trip. *)

val add : 'a t -> string -> 'a -> unit
(** [add t key v] records a computed-from-scratch value: counts a miss,
    inserts [v] under [key] (refreshing nothing if the key raced in
    already), and persists it when the store has a [dir]. *)

type stats =
  { entries : int  (** live in-memory entries *)
  ; capacity : int
  ; hits : int  (** in-memory hits since creation *)
  ; disk_hits : int  (** misses served from [dir] *)
  ; misses : int  (** computed from scratch *)
  ; evictions : int  (** in-memory LRU evictions *)
  ; stale : int
    (** disk entries rejected by the magic/format-version header *)
  }

val stats : 'a t -> stats

val pp_stats : Format.formatter -> stats -> unit
