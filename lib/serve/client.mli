(** Client side of the compile daemon: connect, frame one request, read
    one response.

    Connections are plain Unix-domain stream sockets; a connection may
    carry any number of request/response pairs ([scc client] uses one
    per invocation, the benchmark's [daemon] workload keeps one per
    client).  All failures — daemon not running, protocol violations,
    the daemon's own [Error_reply] — come back as values. *)

val connect : string -> (Unix.file_descr, string) result
(** [connect path] — open a connection to the daemon listening on
    [path]. *)

val rpc :
  Unix.file_descr -> Protocol.request -> (Protocol.response, string) result
(** Send one request, wait for its response. *)

val close : Unix.file_descr -> unit

val with_connection :
  string -> (Unix.file_descr -> ('a, string) result) -> ('a, string) result
(** Connect, run, always close. *)

val one_shot : string -> Protocol.request -> (Protocol.response, string) result
(** [one_shot path req] — a whole session for a single request. *)
