(** Quality-of-result telemetry: machine-readable snapshots of what a
    compilation produced and what it cost, baseline diffing, and the
    regression gate CI runs on every commit.

    The paper's claim C3 is that automatic compilation works "at a cost
    in space and speed"; the [Obs] layer can {e print} that cost, this
    module {e records} it.  A {!snapshot} is captured from the recorder
    after a compile ([scc ... --metrics out.json]), serialized as
    versioned JSON, committed as a baseline ([bench/baselines/*.json]),
    and compared with {!diff}: every metric delta is classified as
    improved, neutral or regressed against per-metric relative/absolute
    {!thresholds}, and [scc diff] turns a regression into a non-zero
    exit — which makes every future perf or QoR change self-verifying.

    Metrics live in two sections with different contracts:

    - {e QoR} — gate/register/transistor counts, bounding-box area,
      placement HPWL, routed channel tracks, CIF rect counts per layer,
      DRC violations, BDD proof sizes.  Deterministic: byte-identical
      across runs and across machines, so QoR diffs are exact (default
      threshold zero).
    - {e runtime} — per-stage wall/self time (whole microseconds, so the
      JSON stays integral), cache hit/miss/eviction counts, pool width
      and per-domain task counts.  Volatile by nature; diffs are
      thresholded and, by default, informational rather than gating.

    Every value is stored as a float that is in fact integral (counts,
    square lambda, microseconds), which keeps the JSON encoding exact
    and the files byte-stable. *)

(** {2 Snapshots} *)

type snapshot =
  { version : int  (** format version, stamped at capture *)
  ; design : string
  ; qor : (string * float) list  (** sorted by key; deterministic *)
  ; runtime : (string * float) list  (** sorted by key; volatile *)
  }

val is_runtime_key : string -> bool
(** Keys under ["stage."], ["cache."], ["pool."], ["pipeline."] or
    ending in [".tasks"]/[".calls"]/["_us"] are runtime; everything
    else is QoR. *)

val capture :
  recorder:Sc_obs.Obs.Recorder.t -> design:string -> unit -> snapshot
(** Build a snapshot from [recorder]'s state: global counters and
    gauges split into the two sections by {!is_runtime_key}, and the
    per-stage table folded in as
    ["stage.<path>.total_us"/".self_us"/".calls"].  Times are rounded
    to whole microseconds.  Reads completed events, so it also works
    after the recorder is disabled. *)

(** {2 JSON} *)

val to_json : snapshot -> Sc_obs.Json.t
val of_json : Sc_obs.Json.t -> (snapshot, string) result

val qor_string : snapshot -> string
(** The QoR section alone, serialized — the byte string the
    determinism tests (warm = cold, run = run) compare. *)

val write : string -> snapshot -> unit
val read : string -> (snapshot, string) result

(** {2 Diffing} *)

(** What a metric getting bigger means. *)
type direction =
  | Lower_better  (** area, gates, violations, time — the default *)
  | Higher_better  (** cache hits, proved cones *)
  | Informational  (** pool width, call counts: change is never a verdict *)

type threshold =
  { rel : float  (** |delta| / |base| at or below this is neutral *)
  ; abs : float  (** |delta| at or below this is neutral *)
  }

(** Per-metric overrides: an exact key, or a prefix pattern ending in
    ['*'].  The most specific match wins (exact, then longest prefix);
    unmatched keys fall back to the class default — exact for QoR
    ([rel = 0, abs = 0]), loose for runtime ([rel = 0.25,
    abs = 20000] us). *)
type thresholds

val default_thresholds : thresholds

val thresholds_of_string : string -> (thresholds, string) result
(** Parse a thresholds file: a JSON object mapping key-or-pattern to
    [{"rel": r, "abs": a}] (either field may be omitted). *)

type verdict = Improved | Neutral | Regressed

type delta =
  { key : string
  ; runtime : bool
  ; base : float option  (** [None]: metric is new in the current run *)
  ; cur : float option  (** [None]: metric disappeared *)
  ; verdict : verdict  (** added/removed metrics are always [Neutral] *)
  }

type report =
  { base_design : string
  ; cur_design : string
  ; deltas : delta list  (** QoR first, then runtime, each sorted by key *)
  }

val diff : ?thresholds:thresholds -> snapshot -> snapshot -> report
(** [diff base current] — classify every metric present in either
    snapshot. *)

val gate : ?runtime:bool -> report -> bool
(** [true] when the report should fail a quality gate: some QoR delta
    is [Regressed], or with [runtime] (default [false]) some runtime
    delta is. *)

(** {2 Rendering} *)

val pp_snapshot : Format.formatter -> snapshot -> unit
(** The human table behind [scc report]: both sections, stage times
    shown in milliseconds. *)

val pp_report : Format.formatter -> report -> unit
(** The classified diff table behind [scc diff]: only changed metrics,
    verdict summary at the end. *)
