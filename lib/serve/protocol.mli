(** The compile daemon's wire protocol: length-prefixed frames carrying
    JSON payloads.

    [scc serve] and [scc client] speak the simplest protocol that can
    multiplex the compiler (the CVC lesson: a fast compiler wants a
    {e simple} server around it, not the reverse).  A {e frame} is a
    4-byte big-endian payload length followed by that many payload
    bytes; the payload is one JSON value printed by {!Sc_obs.Json}.
    Requests and responses are tagged objects ([{"t": "compile", ...}]);
    unknown tags, malformed JSON, truncated frames and oversized lengths
    are all {e rejected as values} — a bad client gets an [Error_reply],
    never a daemon crash.

    Requests carry the design {e source text} inline (the client
    resolves builtin names and file paths before sending), so the
    daemon's dedup key — style, restarts and the source digest — is a
    pure function of the frame and two clients editing the same file
    share one in-flight execution. *)

(** {2 Framing} *)

val max_frame : int
(** Upper bound on a payload length (64 MiB); longer prefixes are
    rejected without allocating. *)

val encode_frame : string -> string
(** The 4-byte length prefix plus the payload, as one string. *)

val write_frame : Unix.file_descr -> string -> unit
(** Write one frame, looping over partial writes.  Raises [Unix_error]
    if the peer is gone. *)

val read_frame : Unix.file_descr -> (string option, string) result
(** Read one frame.  [Ok None] is a clean end-of-stream (the peer
    closed between frames); [Error _] is a truncated frame, a negative
    or oversized length, or an I/O failure. *)

(** {2 Requests} *)

(** What to compile: the display name (snapshot [design] field), the
    full source text, the frontend/control style (["gates"] or ["pla"]
    for ISP source, ["verilog"] for Verilog source), the placement
    restart count, and whether every netlist-to-netlist pass must emit
    a translation certificate
    ({!Sc_pipeline.Pipeline.with_certify}).  [certify] may be absent
    on the wire (pre-certify clients): it decodes as [false]. *)
type compile_spec =
  { design : string
  ; source : string
  ; style : string
  ; restarts : int
  ; certify : bool
  }

type request =
  | Compile of compile_spec  (** compile; answer with the snapshot *)
  | Report of compile_spec  (** compile; answer with the human table *)
  | Diff of { spec : compile_spec; baseline : Sc_obs.Json.t }
      (** compile; diff the snapshot against [baseline] (a snapshot the
          client read from disk) *)
  | Equiv of { a : string; b : string; k : int }
      (** prove two circuits equivalent; specs are [hand:NAME] or
          [isp:NAME] *)
  | Stats  (** server counters: requests, in-flight, dedup hits, ... *)
  | Shutdown  (** stop accepting and exit cleanly *)

(** {2 Responses} *)

(** A successful compilation, measured. *)
type compiled =
  { snapshot : Sc_obs.Json.t  (** {!Sc_metrics.Metrics.to_json} *)
  ; cif_bytes : int
  ; gates : int
  ; flipflops : int
  ; transistors : int
  ; area : int
  ; drc_violations : int
  ; passes : (string * string) list
      (** per-pass outcome, e.g. [("place", "hit (memory)")] *)
  }

(** The [Stats] answer.  [counters] carries the server and cache
    counters plus the per-verb latency distribution
    (["latency.<verb>.count"/".p50_us"/".p95_us"/".p99_us"]).
    [uptime_s], [server_version] (wire field ["version"]) and [verbs]
    (requests decoded per verb) were added by the telemetry protocol
    bump: they are omitted from the wire when absent and decode as
    [None]/[[]] when a pre-telemetry daemon answers — the same
    compatibility discipline as {!compile_spec.certify}. *)
type stats_payload =
  { counters : (string * int) list
  ; uptime_s : int option
  ; server_version : string option
  ; verbs : (string * int) list
  }

type response =
  | Compiled of compiled
  | Reported of string  (** rendered {!Sc_metrics.Metrics.pp_snapshot} *)
  | Diffed of { report : string; regressed : bool }
  | Equiv_verdict of { equivalent : bool; detail : string }
  | Stats_reply of stats_payload
  | Bye  (** acknowledges [Shutdown] *)
  | Error_reply of { stage : string; message : string }
      (** a {!Sc_pipeline.Diag.t} (or protocol error) as a value *)

(** {2 Codecs}

    Total and inverse: every value round-trips, every decode failure is
    an [Error] with a message. *)

val json_of_request : request -> Sc_obs.Json.t
val request_of_json : Sc_obs.Json.t -> (request, string) result
val string_of_request : request -> string
val request_of_string : string -> (request, string) result

val json_of_response : response -> Sc_obs.Json.t
val response_of_json : Sc_obs.Json.t -> (response, string) result
val string_of_response : response -> string
val response_of_string : string -> (response, string) result
