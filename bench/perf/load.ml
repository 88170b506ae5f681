(* The timed runs: set a workload up, drive it for a fixed time with
   observability off, and check every result.

   Single-shot workloads spawn one [scc] process per request, one at a
   time (a closed loop with one client).  The daemon workload starts
   [scc serve] as a child and drives it over two connections, one
   thread each (a closed loop with two clients: each sends its next
   request when the previous reply arrives).

   Between requests the calibration kernel is timed (Calib), outside
   the timed windows; the daemon's clients pause for it every 250 ms. *)

module P = Sc_serve.Protocol

type env =
  { scc : string  (** the compiler binary *)
  ; root : string  (** checkout root: examples/, bench/baselines/ *)
  ; dir : string  (** private scratch directory of this run *)
  }

type sample =
  { spec : int
  ; t0 : float  (** when the request was sent *)
  ; wall_ms : float
  ; ok : bool  (** exited 0 / answered, and the output checked out *)
  ; cpu_ms : float  (** single-shot: the child's CPU time; daemon: nan *)
  ; rss_kb : int
  ; passes : (string * string) list  (** pass, status; empty without cache *)
  }

type server =
  { pid : int
  ; socket : string
  ; started : float
  }

type prepared =
  { plan : Plan.t
  ; check : Check.t
  ; sdir : string  (** this set-up's directory *)
  ; inputs : string array  (** per spec: the design argument for scc *)
  ; cache : string option  (** warm: the stage cache directory *)
  ; server : server option
  }

let request_timeout = 60.

(* --- single-shot ------------------------------------------------------ *)

let scc_args p i ~out =
  let spec = p.plan.Plan.specs.(i) in
  (if spec.Plan.style = "verilog" then [ "verilog" ] else [ "isp" ])
  @ [ p.inputs.(i); "-o"; out ]
  @ (if spec.style = "pla" then [ "--style"; "pla" ] else [])
  @ (if spec.restarts > 0 then [ "--restarts"; string_of_int spec.restarts ]
     else [])
  @ (if spec.certify then [ "--certify" ] else [])
  @
  match p.cache with
  | Some d -> [ "--stage-cache"; d; "--explain" ]
  | None -> []

let single env p i =
  let out = Filename.concat p.sdir "out.cif" in
  let err = Filename.concat p.sdir "err.txt" in
  let t0 = Unix.gettimeofday () in
  let o =
    Proc.run ~out:err ~timeout:request_timeout env.scc (scc_args p i ~out)
  in
  (* the request is over: everything below is outside the timed window *)
  let spec = p.plan.Plan.specs.(i) in
  let ok, passes =
    if o.Proc.code <> 0 || o.Proc.timed_out then begin
      Check.note p.check
        (Printf.sprintf "%s: scc exited %d%s" spec.Plan.id o.Proc.code
           (if o.Proc.timed_out then " (timeout)" else ""));
      (false, [])
    end
    else
      match Check.parse_stderr (Proc.read_file err) with
      | _, _, None, _ ->
        Check.note p.check (spec.id ^ ": no summary on stderr");
        (false, [])
      | gates, flipflops, Some (area, transistors, drc), passes ->
        let cif = Proc.read_file out in
        let digest = Digest.string cif in
        ( Check.cif_parses p.check ~id:spec.id ~digest cif
          && Check.observe p.check spec
               { Check.gates
               ; flipflops
               ; area
               ; transistors
               ; drc
               ; cif_bytes = String.length cif
               ; cif_digest = Some digest
               ; qor = None
               }
        , passes )
  in
  { spec = i
  ; t0
  ; wall_ms = o.Proc.wall_s *. 1000.
  ; ok
  ; cpu_ms = o.Proc.cpu_s *. 1000.
  ; rss_kb = o.Proc.maxrss_kb
  ; passes
  }

(* --- the daemon ------------------------------------------------------- *)

let connect socket =
  match Sc_serve.Client.connect socket with
  | Ok fd ->
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO request_timeout;
    Ok fd
  | Error e -> Error e

(* one request on a fresh connection, with the receive timeout *)
let call socket req =
  match connect socket with
  | Error e -> Error e
  | Ok fd ->
    Fun.protect
      ~finally:(fun () -> Sc_serve.Client.close fd)
      (fun () -> Sc_serve.Client.rpc fd req)

(* [lifetime]: the watchdog kills the daemon after that many seconds
   whatever happens, so a wedged server cannot hold the benchmark *)
let start_server env ~dir ~lifetime =
  let socket = Filename.concat dir "s.sock" in
  let started = Unix.gettimeofday () in
  let pid =
    Proc.spawn
      ~out:(Filename.concat dir "serve.log")
      env.scc
      [ "serve"; "--socket"; socket; "--stage-cache"; Filename.concat dir "cache" ]
  in
  Proc.watch pid ~timeout:lifetime;
  let rec ready tries =
    match connect socket with
    | Ok fd ->
      Sc_serve.Client.close fd;
      { pid; socket; started }
    | Error e ->
      if tries = 0 then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Proc.reap ~started pid);
        failwith ("scc serve did not come up: " ^ e)
      end
      else begin
        Thread.delay 0.002;
        ready (tries - 1)
      end
  in
  ready 5000

(* the daemon's peak resident set, from /proc *)
let vm_hwm_kb pid =
  match Proc.read_file (Printf.sprintf "/proc/%d/status" pid) with
  | text ->
    List.find_map
      (fun line ->
        try Scanf.sscanf line "VmHWM: %d kB" Option.some
        with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)
      (String.split_on_char '\n' text)
  | exception Sys_error _ -> None

(* shut the daemon down and reap it; its CPU time *)
let stop_server s =
  ignore (call s.socket P.Shutdown);
  (Proc.reap ~started:s.started s.pid).Proc.cpu_s

let wire_spec (s : Plan.spec) =
  { P.design = s.design
  ; source = s.source
  ; style = s.style
  ; restarts = s.restarts
  ; certify = s.certify
  }

(* Lets the calibrating thread stop the clients between requests. *)
type gate =
  { m : Mutex.t
  ; c : Condition.t
  ; mutable paused : bool
  ; mutable busy : int  (** requests in flight *)
  }

let gate () = { m = Mutex.create (); c = Condition.create (); paused = false; busy = 0 }

let enter g =
  Mutex.lock g.m;
  while g.paused do
    Condition.wait g.c g.m
  done;
  g.busy <- g.busy + 1;
  Mutex.unlock g.m

let leave g =
  Mutex.lock g.m;
  g.busy <- g.busy - 1;
  Condition.broadcast g.c;
  Mutex.unlock g.m

(* stop new requests and wait for the ones in flight *)
let pause g =
  Mutex.lock g.m;
  g.paused <- true;
  while g.busy > 0 do
    Condition.wait g.c g.m
  done;
  Mutex.unlock g.m

let resume g =
  Mutex.lock g.m;
  g.paused <- false;
  Condition.broadcast g.c;
  Mutex.unlock g.m

(* [drive s plan ~clients ~gate next] — each client thread sends the
   spec [next ()] names until it says [None].  Returns whether any
   client is still running, and a function that waits for them all and
   gives the replies, kept for the checks after the phase. *)
let drive s (plan : Plan.t) ~clients ~gate next =
  let results = Array.make clients [] in
  let client c () =
    let conn = ref (connect s.socket) in
    let rec loop acc =
      enter gate;
      match next () with
      | None ->
        leave gate;
        acc
      | Some i ->
        let t0 = Unix.gettimeofday () in
        let reply =
          match !conn with
          | Error e -> Error e
          | Ok fd -> Sc_serve.Client.rpc fd (P.Compile (wire_spec plan.Plan.specs.(i)))
        in
        let dt = (Unix.gettimeofday () -. t0) *. 1000. in
        leave gate;
        (match reply with
        | Error _ ->
          (* the connection is unusable after a transport error *)
          (match !conn with Ok fd -> Sc_serve.Client.close fd | Error _ -> ());
          conn := connect s.socket
        | Ok _ -> ());
        loop ((i, t0, dt, reply) :: acc)
    in
    let acc = loop [] in
    (match !conn with Ok fd -> Sc_serve.Client.close fd | Error _ -> ());
    results.(c) <- List.rev acc
  in
  let finished = Atomic.make 0 in
  let threads =
    List.init clients (fun c ->
        Thread.create
          (fun () ->
            Fun.protect ~finally:(fun () -> Atomic.incr finished) (client c))
          ())
  in
  ( (fun () -> Atomic.get finished < clients)
  , fun () ->
      List.iter Thread.join threads;
      List.concat (Array.to_list results) )

let check_reply p (i, t0, dt, reply) =
  let spec = p.plan.Plan.specs.(i) in
  let sample ok passes =
    { spec = i; t0; wall_ms = dt; ok; cpu_ms = nan; rss_kb = 0; passes }
  in
  let fail msg =
    Check.note p.check (spec.Plan.id ^ ": " ^ msg);
    sample false []
  in
  match reply with
  | Error e -> fail e
  | Ok (P.Error_reply { stage; message }) -> fail (stage ^ ": " ^ message)
  | Ok (P.Compiled r) -> (
    match Sc_metrics.Metrics.of_json r.P.snapshot with
    | Error e -> fail ("bad snapshot: " ^ e)
    | Ok snap ->
      sample
        (Check.observe p.check spec
           { Check.gates = Some r.P.gates
           ; flipflops = Some r.P.flipflops
           ; area = r.P.area
           ; transistors = r.P.transistors
           ; drc = r.P.drc_violations
           ; cif_bytes = r.P.cif_bytes
           ; cif_digest = None
           ; qor = Some (Sc_metrics.Metrics.qor_string snap)
           })
        r.P.passes)
  | Ok _ -> fail "unexpected reply"

(* a thread-safe cursor over [a] *)
let cursor ?(limit = max_int) ?(until = infinity) a =
  let k = Atomic.make 0 in
  fun () ->
    let i = Atomic.fetch_and_add k 1 in
    if i >= limit || Array.length a = 0 || Unix.gettimeofday () >= until then None
    else Some a.(i mod Array.length a)

(* --- set-up ----------------------------------------------------------- *)

let sanitize id =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c | _ -> '_')
    id

let setup_failed (p : prepared) what =
  failwith
    (Printf.sprintf "set-up of %s failed (%s): %s" p.plan.Plan.name what
       (String.concat "; " p.check.Check.errors))

(* One set-up: generate and check the inputs, write them out, then
   compile every [prime] spec once: single-shot (the warm-up of the
   cold workloads, the cache fill of warm_edit) or through a freshly
   started daemon (its cache fill). *)
let setup env ~calib ~seed ~seconds ~limit ~dir name =
  Proc.mkdir_p dir;
  let plan = Plan.make ~root:env.root ~seed name in
  let check = Check.create ~root:env.root plan.Plan.specs in
  let inputs =
    Array.map
      (fun (s : Plan.spec) ->
        match s.builtin with
        | Some n -> n
        | None ->
          let path =
            Filename.concat dir
              (sanitize s.id ^ if s.style = "verilog" then ".v" else ".isp")
          in
          if plan.mode <> Plan.Daemon then Proc.write_file path s.source;
          path)
      plan.specs
  in
  let p =
    { plan
    ; check
    ; sdir = dir
    ; inputs
    ; cache =
        (if plan.mode = Plan.Warm then Some (Filename.concat dir "cache") else None)
    ; server = None
    }
  in
  match plan.mode with
  | Plan.Cold | Plan.Warm ->
    List.iter
      (fun i ->
        Calib.tick calib;
        if not (single env p i).ok then setup_failed p "compile")
      plan.prime;
    p
  | Plan.Daemon ->
    let s = start_server env ~dir ~lifetime:(float_of_int seconds +. 120.) in
    let p = { p with server = Some s } in
    (* a run of [limit] requests needs only their specs in the cache *)
    let prime =
      if limit >= Array.length plan.order then plan.prime
      else List.sort_uniq compare (Array.to_list (Array.sub plan.order 0 limit))
    in
    let _, wait =
      drive s plan ~clients:2 ~gate:(gate ())
        (cursor ~limit:(List.length prime) (Array.of_list prime))
    in
    if not (List.for_all (fun r -> (check_reply p r).ok) (wait ())) then
      setup_failed p "cache fill";
    p

let teardown p =
  let cpu = Option.map stop_server p.server in
  Proc.rm_rf p.sdir;
  cpu

(* --- the timed run ---------------------------------------------------- *)

type metric =
  { name : string
  ; value : float
  ; unit : string
  ; n : int  (** samples behind the value *)
  ; note : string  (** e.g. which percentile a tail is *)
  }

let metric ?(note = "") ~n name unit value = { name; value; unit; n; note }

type result =
  { workload : string
  ; attempted : int
  ; failed : int
  ; errors : string list
  ; metrics : metric list  (** end to end, at the reference speed *)
  ; layers : metric list  (** raw values, per-layer rows, hit/miss splits *)
  }

let ms_of_us v = float_of_int v /. 1000.

(* hit/miss split and cache-tier shares, for runs that report passes *)
let cache_metrics samples =
  let with_passes = List.filter (fun s -> s.passes <> []) samples in
  if with_passes = [] then []
  else
    let all_hit s =
      List.for_all
        (fun (_, st) -> String.length st >= 3 && String.sub st 0 3 = "hit")
        s.passes
    in
    let hits, misses = List.partition all_hit with_passes in
    let p50 l = Stat.median (List.map (fun s -> if s.ok then s.wall_ms else infinity) l) in
    let statuses = List.concat_map (fun s -> List.map snd s.passes) with_passes in
    let share st =
      float_of_int (List.length (List.filter (( = ) st) statuses))
      /. float_of_int (List.length statuses)
    in
    let n = List.length statuses in
    (if hits = [] then [] else [ metric ~n:(List.length hits) "hit_p50_ms" "ms" (p50 hits) ])
    @ (if misses = [] then []
       else [ metric ~n:(List.length misses) "miss_p50_ms" "ms" (p50 misses) ])
    @ [ metric ~n "cache.memory_hit_ratio" "fraction" (share "hit (memory)")
      ; metric ~n "cache.disk_hit_ratio" "fraction" (share "hit (disk)")
      ; metric ~n "cache.ran_ratio" "fraction" (share "ran")
      ]

(* The timed phase against the daemon: two clients until [until], with
   a calibration pause every 250 ms.  Returns the replies and the active
   intervals (pauses excluded). *)
let daemon_phase s (plan : Plan.t) calib ~until ~limit =
  let g = gate () in
  let running, wait = drive s plan ~clients:2 ~gate:g (cursor ~limit ~until plan.order) in
  let slices = ref [] in
  let start = ref (Unix.gettimeofday ()) in
  while running () do
    Thread.delay 0.25;
    pause g;
    slices := (!start, Unix.gettimeofday ()) :: !slices;
    Calib.sample calib;
    start := Unix.gettimeofday ();
    resume g
  done;
  let replies = wait () in
  slices := (!start, Unix.gettimeofday ()) :: !slices;
  Calib.sample calib;
  (replies, !slices)

(* [run env ~seed ~seconds ~limit ~setups name] — set the workload up
   [setups] times (the median is setup_s; the last one is used), then
   send requests until [seconds] have passed or [limit] were sent *)
let run env ~seed ~seconds ~limit ~setups name =
  let calib = Calib.create () in
  let rec set_up k times =
    let dir = Filename.concat env.dir (Printf.sprintf "%s-%d" name k) in
    Calib.sample calib;
    let t0 = Unix.gettimeofday () in
    let p = setup env ~calib ~seed ~seconds ~limit ~dir name in
    let t1 = Unix.gettimeofday () in
    Calib.sample calib;
    let times = (t0, t1) :: times in
    if k < setups then begin
      ignore (teardown p);
      set_up (k + 1) times
    end
    else (times, p)
  in
  let setup_times, p = set_up 1 [] in
  let torn_down = ref false in
  let teardown () =
    torn_down := true;
    teardown p
  in
  Fun.protect
    ~finally:(fun () -> if not !torn_down then ignore (teardown ()))
    (fun () ->
      let until = Unix.gettimeofday () +. float_of_int seconds in
      let plan = p.plan in
      let samples, slices, rss_kb, extra =
        match p.server with
        | None ->
          let rec loop k acc =
            if k >= limit || (k > 0 && Unix.gettimeofday () >= until) then
              List.rev acc
            else begin
              Calib.tick calib;
              loop (k + 1)
                (single env p plan.Plan.order.(k mod Array.length plan.order)
                :: acc)
            end
          in
          let samples = loop 0 [] in
          Calib.sample calib;
          ( samples
          , List.map (fun s -> (s.t0, s.t0 +. (s.wall_ms /. 1000.))) samples
          , List.fold_left (fun a s -> max a s.rss_kb) 0 samples
          , [ metric ~n:(List.length samples) "process.cpu_ms" "ms"
                (Stat.median (List.map (fun s -> s.cpu_ms) samples))
            ] )
        | Some s ->
          let replies, slices = daemon_phase s plan calib ~until ~limit in
          let counters =
            match call s.socket P.Stats with
            | Ok (P.Stats_reply { counters; _ }) -> counters
            | _ -> []
          in
          let hwm = vm_hwm_kb s.pid in
          let cpu_s = Option.value ~default:nan (teardown ()) in
          let samples = List.map (check_reply p) replies in
          let c k = Option.value ~default:0 (List.assoc_opt k counters) in
          let n = List.length samples in
          let client_p50 = Stat.median (List.map (fun s -> s.wall_ms) samples) in
          let server_p50 = ms_of_us (c "latency.compile.p50_us") in
          ( samples
          , slices
          , Option.value ~default:0 hwm
          , [ metric ~n "serve.server_p50_ms" "ms" server_p50
            ; metric ~n "serve.server_p99_ms" "ms" (ms_of_us (c "latency.compile.p99_us"))
            ; metric ~n "serve.transport_ms" "ms" (client_p50 -. server_p50)
            ; metric ~n "serve.exec_ratio" "fraction"
                (float_of_int (c "serve.executions")
                /. float_of_int (max 1 (c "latency.compile.count")))
            ; metric ~n "serve.dedup_hits" "count" (float_of_int (c "serve.dedup_hits"))
            ; metric ~n "serve.peak_executions" "count"
                (float_of_int (c "serve.peak_executions"))
            ; metric ~n "serve.cpu_ms" "ms" (cpu_s *. 1000. /. float_of_int (max 1 n))
            ] )
      in
      let attempted = List.length samples in
      let completed = List.length (List.filter (fun s -> s.ok) samples) in
      let failed = attempted - completed in
      (* a failed request counts as an infinite latency *)
      let latencies f =
        List.map (fun s -> if s.ok then f s else infinity) samples
      in
      let raw = latencies (fun s -> s.wall_ms) in
      let scaled =
        latencies (fun s ->
            Calib.scale calib ~t0:s.t0 ~t1:(s.t0 +. (s.wall_ms /. 1000.)) s.wall_ms)
      in
      let busy f = List.fold_left (fun a (t0, t1) -> a +. f t0 t1) 0. slices in
      let raw_busy = busy (fun t0 t1 -> t1 -. t0) in
      let scaled_busy = busy (fun t0 t1 -> Calib.scale calib ~t0 ~t1 (t1 -. t0)) in
      let setup f = Stat.median (List.map (fun (t0, t1) -> f t0 t1) setup_times) in
      let q = Stat.tail_percentile attempted in
      let tail = Stat.percentile_label q in
      let rate busy = float_of_int completed /. busy in
      { workload = name
      ; attempted
      ; failed
      ; errors = p.check.Check.errors
      ; metrics =
          [ metric ~n:setups "setup_s" "s"
              (setup (fun t0 t1 -> Calib.scale calib ~t0 ~t1 (t1 -. t0)))
          ; metric ~n:attempted "latency_p50_ms" "ms" (Stat.median scaled)
          ; metric ~n:attempted ~note:tail "latency_tail_ms" "ms" (Stat.percentile scaled q)
          ; metric ~n:attempted "throughput_rps" "req/s" (rate scaled_busy)
          ; metric ~n:attempted "peak_rss_mb" "MB" (float_of_int rss_kb /. 1024.)
          ]
      ; layers =
          [ metric ~n:setups "raw.setup_s" "s" (setup (fun t0 t1 -> t1 -. t0))
          ; metric ~n:attempted "raw.latency_p50_ms" "ms" (Stat.median raw)
          ; metric ~n:attempted ~note:tail "raw.latency_tail_ms" "ms" (Stat.percentile raw q)
          ; metric ~n:attempted "raw.throughput_rps" "req/s" (rate raw_busy)
          ; metric ~n:(List.length (Calib.samples calib)) "calib.kernel_ms" "ms"
              (Calib.median calib)
          ; metric ~n:attempted "failed_ratio" "fraction"
              (float_of_int failed /. float_of_int (max 1 attempted))
          ]
          @ cache_metrics samples @ extra
      })
