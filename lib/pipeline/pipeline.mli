(** A typed pass manager with per-stage content-addressed caching.

    Both compilation paths — behavioral
    (parse → compile → optimize → place → route → drc → emit → measure)
    and structural (elaborate → drc → emit → measure) — are sequences
    of {e passes} over {e staged} values.  A staged value carries its
    content {e key}: the digest of everything that went into producing
    it.  Registering a pass once buys, uniformly:

    - an {!Sc_obs.Obs} span named after the pass;
    - a structured {!Diag} error channel (a pass returns
      [(_, Diag.t) result]; raised {!Diag.Error}s and stray exceptions
      are caught at the stage boundary) — failures are values, never
      cached;
    - a per-pass {!Sc_cache.Cache} entry keyed on
      [digest (name # version | param | input key)], in memory and —
      with {!enable_cache}[ ~dir] — on disk, so identical inputs are
      stage-level hits and an edited parameter (say [--restarts])
      invalidates only the passes downstream of it;
    - a ["pipeline.<name>.<status>"] counter and a run-log entry for
      [--explain];
    - optionally, a {e translation certificate} (see below).

    {2 Key discipline}

    The cache key never includes observability state or pool width, so
    instrumented/uninstrumented and [-j 1]/[-j 4] runs share entries.
    Everything that {e does} affect the artifact must reach the key:
    either via the staged input (its key chains all upstream digests)
    or via [run ~param] for out-of-band knobs (placement restarts,
    entry cell, style).  Two passes registered under the same [name]
    {b must} bake a distinguishing [~param] at every call site
    (e.g. ["style=gates"] vs ["style=pla"]) — the per-pass store is
    shared by name on disk, and colliding keys across artifact types
    would confuse [Marshal].

    {2 Warm-run telemetry}

    A cache hit skips the deep code that emits QoR counters, so each
    pass may register a [replay] hook that re-emits the counters
    derivable from (input, artifact).  Replay runs inside the pass's
    span, only when {!Sc_obs.Obs.enabled}, which keeps warm QoR
    snapshots byte-identical to cold ones.

    {2 Translation certificates}

    A pass whose output claims to mean the same thing as its input (an
    optimizer, a cover minimizer) may register a [certify] hook: given
    (input, artifact) it either returns a {!cert_summary} proof summary
    or refutes the translation with a witness message.  Inside
    {!with_certify}[ true], {!run} checks the hook {e before}
    accepting an artifact — fresh executions are certified before the
    artifact enters the cache (a refused artifact is never cached), and
    cache hits are certified from a parallel per-pass certificate store
    keyed on the same output key, so warm rebuilds stay all-hit without
    re-proving anything.  A refusal surfaces as a [Diag] whose stage
    names the offending pass, with the run-log entry [Failed].

    Hooks must be Obs-quiet: the manager itself emits
    [equiv.certified_passes], [equiv.certificate.cones],
    [equiv.certificate.nodes] (QoR, replayed identically from the
    cached summary on warm runs), [equiv.certificate_us] (runtime) and
    ["pipeline.<name>.certified"] / ["pipeline.<name>.cert_failed"]
    counters from the summary on every path. *)

type 'a staged = private
  { value : 'a
  ; key : string  (** content digest of everything producing [value] *)
  }

val value : 'a staged -> 'a
val key : 'a staged -> string

val source : string -> string staged
(** Stage a source text; the key is its digest. *)

val inject : tag:string -> repr:string -> 'a -> 'a staged
(** Stage an out-of-band value whose identity is [repr] (must be a
    faithful rendering: equal reprs ⇒ interchangeable values).  [tag]
    namespaces the digest. *)

val map : ('a -> 'b) -> 'a staged -> 'b staged
(** A pure view of a staged value: the key is unchanged, so [f] must
    not add information that isn't already pinned by the key. *)

(** {2 Translation certificates} *)

type cert_summary =
  { cert_cones : int  (** independently proven output cones *)
  ; cert_nodes : int  (** peak BDD nodes across the proof (0 if n/a) *)
  }
(** What remains of a successful equivalence proof: enough to replay
    the certificate counters on a warm run.  [Marshal]-safe. *)

type cert_result =
  | Certified of cert_summary
  | Refuted of string
      (** the translation is wrong; the string is a human-readable
          witness (e.g. a rendered counterexample) *)

(** {2 Passes} *)

type ('a, 'b) pass

val register :
  ?version:int ->
  ?replay:('a -> 'b -> unit) ->
  ?certify:('a -> 'b -> cert_result) ->
  name:string ->
  ('a -> ('b, Diag.t) result) ->
  ('a, 'b) pass
(** [register ~name f] — a pass computing ['b] from ['a].  Bump
    [version] (default 1) whenever [f]'s semantics change: it is part
    of the cache key, so stale on-disk artifacts are never replayed.
    [replay] re-emits the pass's QoR counters from (input, artifact)
    on a cache hit; see the module preamble.  [certify] proves the
    artifact equivalent to the input when certification is enabled
    (must be Obs-quiet; a raised {!Diag.Error} counts as a refusal).
    The artifact type must be [Marshal]-safe (no closures) for the
    disk layer. *)

val run : ?param:string -> ('a, 'b) pass -> 'a staged -> ('b staged, Diag.t) result
(** Run a pass on a staged input: derive the output key, consult the
    pass's cache (when enabled), execute inside an Obs span on a miss,
    certify the artifact (when enabled and the pass has a hook),
    record the outcome in the run log.  Errors — including certificate
    refusals — are returned as values and never enter the cache.  The
    span, counters and replay output go to the recorder in scope
    ({!Sc_obs.Obs.with_recorder}). *)

(** {2 Cache control} *)

val enable_cache : ?capacity:int -> ?disk_capacity:int -> ?dir:string -> unit -> unit
(** Turn on per-pass caching (process-global).  Without [dir] the
    stores are memory-only; with it, artifacts persist to
    [dir/<pass>-<digest>] and survive the process.  Calling again with
    a different [dir] re-homes every store lazily.  [disk_capacity]
    bounds each pass's on-disk entry count with LRU eviction (see
    {!Sc_cache.Cache.create}); unbounded by default. *)

val disable_cache : unit -> unit
(** Stop consulting/filling the stores (their contents are kept and
    revived by a later {!enable_cache} with the same [dir]). *)

(** {2 The run context}

    Whether {!run} certifies, and where it journals pass outcomes, is
    one {!Sc_obs.Scope} key: {!with_certify} and {!with_log} bind it
    for the extent of a function on the calling context, nest, and
    restore the outer binding on exit (also on exceptions).
    Concurrent compiles — one per daemon request — never see each
    other's choices, while {!Sc_par.Pool} tasks see their submitter's:
    a module compiled on a worker domain certifies when its requester
    does, and journals into the requester's {!with_log}.  Outside any
    binding nothing is certified and nothing is journaled. *)

val with_certify : bool -> (unit -> 'a) -> 'a
(** [with_certify on f] runs [f] (and the pool tasks it submits) with
    certification [on].  Certificates are cached in per-pass
    ["<name>.cert"] stores when the stage cache is on. *)

val certify_enabled : unit -> bool
(** Whether {!run} will certify here: the innermost {!with_certify},
    else [false]. *)

val clear_caches : unit -> unit
(** Drop every pass's in-memory store and its counters (disk entries
    are left alone) — "process restart" for tests and benches. *)

val cache_stats : unit -> (string * Sc_cache.Cache.stats) list
(** Stats per pass that has a live store, in registration order;
    certificate stores appear as ["<pass>.cert"]. *)

(** {2 Run log — [--explain]} *)

type status =
  | Ran  (** executed (cache miss or caching disabled) *)
  | Hit  (** served from the in-memory store *)
  | Disk_hit  (** served from the on-disk store *)
  | Failed  (** executed and returned a [Diag] *)

val status_to_string : status -> string

val with_log : (unit -> 'a) -> 'a * (string * status) list
(** [with_log f] runs [f] with a fresh journal and returns its result
    with the pass outcomes [f] and its pool tasks produced, in
    execution order — the [--explain] rows.  An inner [with_log] keeps
    its entries from the outer journal.  Appends are safe from any
    domain. *)

val append_log : (string * status) list -> unit
(** Splice entries onto the innermost journal, in order (a no-op
    outside {!with_log}).  The modular driver collects each module's
    journal with its own {!with_log}, then appends the entries (names
    prefixed ["<module>:"]) to the requesting compile's journal so
    [--explain] shows one merged, deterministic sequence. *)

val pp_explain : Format.formatter -> (string * status) list -> unit
(** One ["explain: <pass> <status>"] line per journal entry. *)
