(** The compile daemon: many concurrent clients, one warm stage cache.

    [run] binds a Unix domain socket and serves {!Protocol} frames until
    a [Shutdown] request or (by default) SIGTERM/SIGINT.  Each
    connection gets its own lightweight thread for socket I/O; each
    {e execution} (a compile or equiv the dedup table didn't already
    have in flight) runs on one of a fixed set of execution domains,
    spawned once at start-up ({!Sc_par.Pool.offload}), so the
    process-global pass manager ({!Sc_pipeline.Pipeline}), its
    content-addressed stage cache ({!Sc_cache.Cache}, sharded on disk
    when [stage_cache] is given) and the {!Sc_par.Pool} worker domains
    are shared by every client — the second client to ask for a design
    pays cache-hit prices for work the first one caused.

    {2 Deduplication}

    Requests are keyed on [digest (style | restarts | certify |
    source)].  While a compilation for a key is in flight, further
    requests for the same key do not execute: they wait on the first
    one and share its result through one {!Sc_par.Single_flight} (the
    server's [dedup_hits] counter records each such join).  Two clients saving the same file and recompiling
    cost one pipeline execution.

    {2 Observability}

    Every execution gets its own {!Sc_obs.Obs.Recorder.t}, bound around
    it with {!Sc_obs.Obs.with_recorder}, so instrumented compiles
    overlap — there is no shared recorder state and no lock
    serializing executions.  Certification and the pass journal are scoped
    the same way ({!Sc_pipeline.Pipeline.with_certify},
    {!Sc_pipeline.Pipeline.with_log}): one request's [--certify] or
    [--explain] rows never leak into a concurrent compile.  The per-request sequence —
    fresh recorder, compile, {!Sc_metrics.Metrics.capture} — is exactly
    what single-shot [scc compile D --metrics] does, so daemon snapshots
    stay byte-identical QoR to the committed baselines even under
    concurrency, which the serve-smoke CI job and the benchmark's
    [daemon] workload assert.
    At most [exec_domains] executions run at once, one per execution
    domain; the rest queue.  The high-water mark of concurrently running
    executions is served as [serve.peak_executions].

    {2 Telemetry}

    Three sinks, all optional and all off the execution path:

    - {e histograms}: per-verb request latency in log-bucketed
      {!Sc_obs.Histogram}s, served by the [Stats] verb as
      [latency.<verb>.count/.p50_us/.p95_us/.p99_us] alongside
      [uptime_s], the server version and per-verb request counts;
    - {e structured log} ([log]/[log_level]): a leveled JSONL stream,
      one object per line — per request: verb, design, digest, status,
      duration, dedup/cache/certify outcome; plus lifecycle events
      (start/stop at info, connect/disconnect at debug);
    - {e sampled traces} ([trace_dir]/[trace_sample]): the first N of
      every M executions write their recorder's Chrome trace to
      [trace_dir/<seq>-<design>-<digest>.trace.json], so production
      traffic yields traces without paying for every request. *)

type stats =
  { requests : int  (** frames answered since startup *)
  ; in_flight : int  (** requests currently being handled *)
  ; dedup_hits : int  (** requests that joined an in-flight execution *)
  ; executions : int  (** pipeline runs actually performed *)
  ; peak_executions : int
        (** high-water mark of concurrently running executions *)
  }

val run :
  ?jobs:int ->
  ?stage_cache:string ->
  ?handle_signals:bool ->
  ?exec_domains:int ->
  ?log:string ->
  ?log_level:Sc_obs.Slog.level ->
  ?trace_dir:string ->
  ?trace_sample:int * int ->
  socket:string ->
  unit ->
  int
(** [run ~socket ()] — bind [socket] (an existing file is replaced),
    serve until shutdown, unlink the socket, and return the process
    exit code.  [jobs] sizes the default worker pool (default 1);
    [stage_cache] persists pass artifacts under the given directory so
    a restarted daemon comes back warm; [handle_signals] (default
    [true]) installs SIGTERM/SIGINT handlers for clean shutdown — pass
    [false] when embedding the server in a test or bench thread.

    [exec_domains] is the number of execution domains, and so the bound
    on concurrently running executions (default
    [max 2 (Domain.recommended_domain_count ())]); a count that
    {!exec_domain_count} rejects makes [run] print one line and return 2
    before it binds the socket or starts a domain.  [log] appends the
    JSONL structured log to a file, filtered at [log_level] (default
    [Info]).  [trace_dir] enables per-execution Chrome traces, sampled
    [trace_sample = (n, m)]: the first [n] of every [m] executions
    (default [(1, 1)] — every execution). *)

val exec_domain_count : jobs:int -> int option -> (int, string) result
(** [exec_domain_count ~jobs requested] — how many execution domains
    [run ~jobs ?exec_domains:requested] starts: [requested] (clamped to
    at least 1) or the default, which is capped to fit.  [Error] when
    they would not fit in the runtime's 128 domains beside the main
    domain and the [jobs - 1] workers of the [-j] pool. *)
