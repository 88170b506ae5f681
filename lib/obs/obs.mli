(** Stage-level observability for the compiler: hierarchical spans,
    counters and gauges, a per-stage summary table, and Chrome
    trace-event export.

    Every compilation stage wraps its work in {!span} and reports sizes
    through {!count}/{!gauge} ("gates", "bdd.nodes", "cif.rects",
    "route.tracks", ...).  These entry points record into the
    {!Recorder.t} that {!with_recorder} bound in the calling context's
    {!Scope}; with none bound — or a disabled one — they do nothing but
    the lookup and a branch, so the hot paths the Bechamel
    micro-benchmarks measure are unaffected until someone asks for data
    (`scc compile ... --stats --trace out.json`).

    Whoever records creates a recorder, binds it around the work, and
    reads that recorder back: the CLI once per command, the serve
    daemon once per request, so concurrent compiles never share an
    event buffer.  The ~60 instrumentation sites across the compiler
    libraries never see a handle — attribution is decided by the
    binding above them, not by threading a recorder through every
    signature.  [Sc_par.Pool] tasks and offloaded calls run in their
    submitter's scope, so their spans and counters land in the
    submitter's recorder, whichever domain ran them.

    Spans nest by dynamic scope: a span opened while another is running
    becomes its child, and its path is the dot-joined ancestry
    (["place"] inside nothing, ["route.channel"] for a channel routed
    during the route stage).

    Each recorder is domain- and thread-safe, and recording takes no
    lock.  Every execution context (a domain and a thread) records
    into its own part of the recorder: its span stack, completed
    spans, per-path rows and counter cells.  A domain caches the part
    it used last, so only a context's first span or counter takes a
    lock.  Spans opened on an
    [Sc_par] worker domain therefore nest within that domain and carry
    its {!event.tid}; the Chrome trace shows one track per domain.
    Names and span paths are interned once per process ({!Key}): a
    counter update hashes its name once, a span's dotted path is built
    once per (parent, name), and a closing span adds its time and
    counters to its path's row.  Readers merge the contexts: counts
    add up, and a gauge wins over the updates of the same key that
    precede it on any context.  Read a recorder once the work it
    records has returned; a read that races a recording context may
    miss that context's latest updates.

    Two sinks:

    - {!Recorder.pp_summary} / {!Recorder.stage_table}: one row per
      distinct span path — call count, total and self milliseconds,
      share of the run, and the counters attributed to that span;
    - {!Recorder.write_trace}: the Chrome
      trace-event JSON format (load in [chrome://tracing] or
      [ui.perfetto.dev]); spans become complete ("ph":"X") events with
      their counters as [args], global counters become counter
      ("ph":"C") tracks. *)

(** {2 Events and rows} *)

(** One completed span occurrence. *)
type event =
  { path : string  (** dot-joined ancestry, e.g. ["place"] or ["route.channel"] *)
  ; name : string  (** the name passed to {!span} *)
  ; depth : int  (** 0 = top level *)
  ; tid : int  (** id of the domain that recorded the span (0 = main) *)
  ; start_us : float  (** microseconds since the epoch ({!Recorder.enable}) *)
  ; dur_us : float
  ; self_us : float  (** [dur_us] minus time spent in child spans *)
  ; counters : (string * int) list  (** counts attributed to this occurrence *)
  }

(** One aggregated row of the per-stage summary. *)
type row =
  { rpath : string
  ; rdepth : int
  ; calls : int
  ; total_ms : float
  ; self_ms : float
  ; rcounters : (string * int) list  (** summed over the path's occurrences *)
  }

(** {2 Keys} *)

(** Counter names and span paths, interned once per process.  Keys are
    never released, so a process holds each distinct name once. *)
module Key : sig
  type t

  val intern : string -> t
  val text : t -> string

  val sorted : (t * 'a) list -> (string * 'a) list
  (** The pairs ordered by their keys' text ([String.compare]), with
      the text in place of the key. *)

  val memo : (t -> 'a) -> t -> 'a
  (** [memo f] — [f], computed once per key for the life of the
      process (domain-safe; racing first calls may both run [f]). *)
end

(** {2 Recorder instances} *)

module Recorder : sig
  type t
  (** An independent recording: its own enabled flag, epoch,
      span stacks, event buffer and counter table.  Values are safe to
      share across domains and threads. *)

  val create : unit -> t
  (** A fresh, disabled recorder, timed by [Unix.gettimeofday]. *)

  val enable : t -> unit
  (** Start recording.  The first [enable] stamps the trace epoch all
      timestamps are relative to. *)

  val disable : t -> unit
  (** Stop recording; already-collected events are kept. *)

  val span : t -> string -> (unit -> 'a) -> 'a

  val events : t -> event list
  (** All completed spans, in start order. *)

  val totals : t -> (string * int) list
  (** Global counter/gauge values, sorted by name. *)

  val fold_totals : t -> (Key.t -> int -> 'a -> 'a) -> 'a -> 'a
  (** The values {!totals} lists, in no particular order. *)

  val fold_stages :
    t ->
    (Key.t -> calls:int -> total_ms:float -> self_ms:float -> 'a -> 'a) ->
    'a ->
    'a
  (** The rows {!stage_table} lists, keyed by path, in no particular
      order and without their counters. *)

  val updates : t -> int
  (** How many {!count} and {!gauge} calls the recorder has taken. *)

  val stage_table : t -> row list
  (** Events aggregated by path, ordered so children follow their
      parent (by first start time, parents first). *)

  val pp_summary : Format.formatter -> t -> unit
  (** The per-stage table plus the global counters, human-readable.
      Percentages are of the summed top-level span time. *)

  val write_trace : t -> string -> unit
  (** [write_trace r path] writes the whole recording to [path] as
      Chrome trace-event JSON (an object with a ["traceEvents"] array),
      which parses back with {!Json.parse}. *)
end

val with_recorder : Recorder.t -> (unit -> 'a) -> 'a
(** [with_recorder r f] runs [f] with [r] as the recorder in scope
    (see {!Scope.with_}): other threads are unaffected, which is what
    lets one daemon process record overlapping requests into disjoint
    recorders, and pool tasks [f] submits record into [r] too. *)

(** {2 Recording (the recorder in scope)} *)

val enabled : unit -> bool
(** Whether a recorder is in scope and enabled. *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()], timing it as one hierarchical span.  The
    event is recorded even when [f] raises (the exception propagates).
    Nothing but the lookup and a branch when not recording.

    Re-entrant spans merge: opening [span "x"] while the innermost open
    span on this context is already named ["x"] does not start a child —
    [f] runs inside the existing frame.  This keeps stage paths stable
    when a driver (e.g. {!Sc_pipeline.Pipeline.run}) wraps a uniform
    span around code that opens its own identically-named span: the
    table shows one ["drc"] row, never ["drc.drc"]. *)

val count : string -> int -> unit
(** [count name n] adds [n] to counter [name], both globally and on the
    innermost open span (that is what the summary table shows per
    stage).  No-op when not recording. *)

val gauge : string -> int -> unit
(** [gauge name v] sets counter [name] to [v] (last write wins) —
    for absolute quantities like "gates" or "bdd.nodes" where adding
    across stages would be meaningless. *)
