(* Child processes: spawn, reap with their own CPU time and peak RSS,
   and a watchdog that kills any child past its deadline, so a hung
   compile fails its request instead of hanging the benchmark. *)

external wait4 : int -> int * float * int = "perf_wait4"

type outcome =
  { code : int  (** exit code; minus the signal number if killed *)
  ; wall_s : float  (** spawn to reap *)
  ; cpu_s : float  (** the child's user + system time *)
  ; maxrss_kb : int
  ; timed_out : bool
  }

let lock = Mutex.create ()
let deadlines : (int, float) Hashtbl.t = Hashtbl.create 8
let killed : (int, unit) Hashtbl.t = Hashtbl.create 8
let watching = ref false

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let rec watchdog () =
  Thread.delay 0.1;
  let now = Unix.gettimeofday () in
  locked (fun () ->
      Hashtbl.iter
        (fun pid deadline ->
          if now > deadline && not (Hashtbl.mem killed pid) then begin
            Hashtbl.replace killed pid ();
            try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()
          end)
        deadlines);
  watchdog ()

let watch pid ~timeout =
  locked (fun () ->
      if not !watching then begin
        watching := true;
        ignore (Thread.create watchdog ())
      end;
      Hashtbl.replace deadlines pid (Unix.gettimeofday () +. timeout))

(* whatever way the benchmark ends, no child outlives it *)
let () =
  at_exit (fun () ->
      let pids = locked (fun () -> Hashtbl.fold (fun pid _ l -> pid :: l) deadlines []) in
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        pids)

(* forget [pid]; true when the watchdog had to kill it *)
let unwatch pid =
  locked (fun () ->
      Hashtbl.remove deadlines pid;
      let k = Hashtbl.mem killed pid in
      Hashtbl.remove killed pid;
      k)

(* [spawn ~out prog args] — start [prog] with stdin at end of file and
   stdout and stderr to the file [out] *)
let spawn ~out prog args =
  let fd =
    Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  Unix.close stdin_w;
  Fun.protect
    ~finally:(fun () ->
      Unix.close fd;
      Unix.close stdin_r)
    (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) stdin_r fd fd)

let reap ~started pid =
  let code, cpu_s, maxrss_kb = wait4 pid in
  let wall_s = Unix.gettimeofday () -. started in
  let timed_out = unwatch pid in
  { code; wall_s; cpu_s; maxrss_kb; timed_out }

(* run to completion, timed from just before the spawn *)
let run ~out ~timeout prog args =
  let started = Unix.gettimeofday () in
  let pid = spawn ~out prog args in
  watch pid ~timeout;
  reap ~started pid

(* reads to end of file: /proc files report a length of zero *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
