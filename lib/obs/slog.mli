(** Leveled structured logging: one JSON object per line (JSONL).

    The serve daemon writes one line per request (verb, digest, status,
    duration, cache/dedup/certify outcome) plus lifecycle events.  Every
    line is a complete JSON object — [{"ts":..., "level":"info",
    "event":..., ...}] — so the file parses line-by-line with
    {!Json.parse} and greps/tails cleanly.

    Writers are thread-safe: a line is rendered outside the lock and
    written with a single [output_string] + flush under it, so
    concurrent connection threads never interleave bytes within a
    line. *)

type level = Debug | Info | Warn | Error

val level_to_string : level -> string
(** ["debug"], ["info"], ["warn"], ["error"] — the value of the
    ["level"] field on each line. *)

val level_of_string : string -> (level, string) result
(** Inverse of {!level_to_string}; [Error] names the bad input. *)

type t

val create : ?level:level -> string -> (t, string) result
(** [create path] opens (appending, creating if needed) the JSONL log at
    [path].  Lines below [level] (default [Info]) are dropped.  The
    ["ts"] field is [Unix.gettimeofday], in epoch seconds. *)

val would_log : t -> level -> bool
(** Whether a line at this level passes the filter — lets callers skip
    building expensive fields. *)

val log : t -> level -> event:string -> (string * Json.t) list -> unit
(** [log t lvl ~event fields] appends one line: [ts], [level] and
    [event] followed by [fields], in order.  Dropped (without rendering)
    when [lvl] is below the logger's threshold. *)

val close : t -> unit
(** Flush and close the underlying channel.  Further {!log} calls are
    an error. *)
