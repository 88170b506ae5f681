(** A fixed-size OCaml 5 [Domain] worker pool with deterministic,
    ordered reduction.

    The pipeline's parallel stages (DRC cells and windows, multi-seed
    placement restarts, per-output equivalence cones) all follow the
    same shape: a list of independent pure tasks whose results must come
    back {e in submission order} so that parallel runs are byte-for-byte
    identical to sequential ones.  [run] provides exactly that contract:

    - results are returned in the order the thunks were given,
      regardless of which domain finished first;
    - if any task raises, the exception of the {e earliest} such task is
      re-raised in the caller once all tasks have settled — again
      independent of scheduling;
    - a pool of size 1 spawns no domains at all and runs every task in
      the calling domain, so [-j 1] is the sequential code path.

    The calling domain participates in the work (a pool of size [n]
    spawns [n - 1] worker domains), so no core idles while the caller
    blocks.  Its help covers {e its own batch only}: a caller never runs
    another submitter's tasks, so a task runs either on its submitter's
    domain or on a pool worker.  That makes nested submission safe — a
    task may call [run] on the pool it runs on, and the inner caller
    can always finish its inner batch by itself.

    Every task runs in its submitter's {!Sc_obs.Scope}: whatever the
    submitter had bound — its recorder, whether it certifies, the
    journal its pass outcomes go to — is bound for the task too, on
    any domain, so no caller threads that state into its tasks by
    hand.  Every task runs inside an {!Sc_obs.Obs.span} (named by
    [~label]) when recording; spans carry the worker's domain id,
    so a Chrome trace shows one track per domain and the summary table
    aggregates per-label totals across domains.  Each [run] also
    records the pool width (gauge ["pool.width"]) and per-domain
    completed-task counts (["pool.d<rank>.tasks"], rank 0 = the
    caller), so [Sc_metrics] snapshots expose load imbalance. *)

type t

val create : ?domains:int -> unit -> t
(** [create ~domains ()] — a pool executing on [domains] domains total
    (the caller plus [domains - 1] spawned workers).  [domains]
    defaults to [Domain.recommended_domain_count], capped at 8; values
    below 1 are clamped to 1. *)

val size : t -> int
(** Number of domains the pool executes on, including the caller. *)

val run : ?label:string -> t -> (unit -> 'a) list -> 'a list
(** [run pool thunks] executes every thunk and returns their results in
    submission order.  Deterministic: scheduling affects only timing,
    never results or raised exceptions (the earliest-submitted failure
    wins).  [label] names the per-task Obs spans (default ["par.task"]). *)

val offload : t -> (unit -> 'a) -> 'a
(** [offload pool f] runs [f] on one of the pool's [size pool - 1]
    worker domains and returns its result; the calling thread blocks
    meanwhile and claims no work, so other threads of its domain run on.
    At most [size pool - 1] offloaded calls run at once; later ones queue.
    [f] runs in the caller's {!Sc_obs.Scope} (inside a ["par.offload"]
    span when recording), and an exception it raises is re-raised in
    the caller — the worker carries on.  With no worker to take it (a
    pool of size 1, or one shut down) or when called from one of the
    pool's own workers, [f] runs inline, so nesting cannot deadlock. *)

val shutdown : t -> unit
(** Join the pool's worker domains.  Idempotent; the pool must be idle.
    Pools are also shut down automatically at process exit. *)

(** {2 The process-default pool}

    [scc -j N] sets the default size once at startup; library code
    ([Sc_drc.Checker.check], [Placer.best_of], ...) picks the default
    pool up without threading a handle through every signature.  The
    default size is 1 — all parallel call sites degrade to the
    sequential path unless a pool or [-j] says otherwise. *)

val set_default_size : int -> unit
(** Resize the process-default pool (existing default workers are
    joined; the new pool is created lazily on first use). *)

val default_size : unit -> int

val default : unit -> t
(** The process-default pool, created on first use. *)
