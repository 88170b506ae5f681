(* Leveled structured logging: one JSON object per line (JSONL).

   Each line is a single [output_string] of the fully rendered line
   (newline included) followed by a flush, under the logger's mutex —
   concurrent writers from the daemon's connection threads can never
   interleave bytes within a line, and a consumer tailing the file sees
   only whole lines.  Rendering happens outside the lock. *)

type level = Debug | Info | Warn | Error

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string = function
  | "debug" -> Ok Debug
  | "info" -> Ok Info
  | "warn" -> Ok Warn
  | "error" -> Ok Error
  | s -> Error (Printf.sprintf "unknown log level %S (debug|info|warn|error)" s)

type t =
  { oc : out_channel
  ; lock : Mutex.t
  ; level : level
  }

let create ?(level = Info) path =
  match
    open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path
  with
  | oc -> Ok { oc; lock = Mutex.create (); level }
  | exception Sys_error e -> Error e

let would_log t lvl = severity lvl >= severity t.level

let log t lvl ~event fields =
  if would_log t lvl then begin
    let line =
      Json.to_string
        (Json.Obj
           (("ts", Json.Num (Unix.gettimeofday ()))
           :: ("level", Json.Str (level_to_string lvl))
           :: ("event", Json.Str event)
           :: fields))
      ^ "\n"
    in
    Mutex.protect t.lock (fun () ->
        output_string t.oc line;
        flush t.oc)
  end

let close t =
  Mutex.protect t.lock (fun () ->
      try close_out t.oc with Sys_error _ -> ())
