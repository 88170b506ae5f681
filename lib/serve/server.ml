module P = Protocol
module Json = Sc_obs.Json
module Obs = Sc_obs.Obs
module Histogram = Sc_obs.Histogram
module Slog = Sc_obs.Slog
module Pipeline = Sc_pipeline.Pipeline
module Diag = Sc_pipeline.Diag
module Metrics = Sc_metrics.Metrics

(* bumped when the stats payload grows; clients render it verbatim *)
let server_version = "serve/2"

type stats =
  { requests : int
  ; in_flight : int
  ; dedup_hits : int
  ; executions : int
  ; peak_executions : int
  }

(* the outcome of one execution, shared by identical in-flight requests *)
type compiled =
  { snapshot : Metrics.snapshot
  ; cif_bytes : int
  ; gates : int
  ; flipflops : int
  ; transistors : int
  ; area : int
  ; drc_violations : int
  ; passes : (string * string) list
  }

type outcome = O_ok of compiled | O_diag of Diag.t

type state =
  { lock : Mutex.t  (* counters, conns, stop flag *)
  ; flights : outcome Sc_par.Single_flight.t  (* in-flight compiles *)
  ; mutable requests : int
  ; mutable active : int
  ; mutable dedup_hits : int
  ; mutable executions : int
  ; exec_cond : Condition.t  (* signalled when an execution slot frees *)
  ; exec_slots : int  (* max concurrent execution domains *)
  ; mutable exec_active : int
  ; mutable peak_executions : int  (* high-water mark of [exec_active] *)
  ; verb_counts : (string, int) Hashtbl.t  (* completed requests per verb *)
  ; latency : (string, Histogram.t) Hashtbl.t  (* per-verb, microseconds *)
  ; started : float
  ; slog : Slog.t option
  ; trace_dir : string option
  ; trace_sample : int * int  (* trace the first N of every M executions *)
  ; mutable trace_seq : int  (* executed-compile sequence number *)
  ; mutable conn_seq : int
  ; mutable stop : bool
  ; mutable conns : Unix.file_descr list
  ; mutable threads : Thread.t list
  ; listen_fd : Unix.file_descr
  ; stop_w : Unix.file_descr  (* self-pipe: wake the accept loop *)
  }

let locked st f = Mutex.protect st.lock f

let slog st lvl ~event fields =
  match st.slog with None -> () | Some l -> Slog.log l lvl ~event fields

let jnum i = Json.Num (float_of_int i)

(* --- the execution path --- *)

(* Every pipeline execution runs on a freshly spawned domain with a
   per-request [Obs.Recorder.t] bound around it, so instrumented
   compiles record concurrently into disjoint recorders — no shared
   observability state, no lock.  Spawning a domain rather than running
   on the connection's systhread also buys wall-clock overlap:
   systhreads of one domain share the runtime lock, domains do not, and
   the joining connection thread releases the lock while it waits.  A bounded slot
   count keeps a burst of cold compiles from spawning domains without
   limit; [peak_executions] records the high-water mark of concurrently
   running executions, which bench e16 asserts exceeds 1. *)
let run_on_domain st f =
  Mutex.lock st.lock;
  while st.exec_active >= st.exec_slots do
    Condition.wait st.exec_cond st.lock
  done;
  st.exec_active <- st.exec_active + 1;
  if st.exec_active > st.peak_executions then
    st.peak_executions <- st.exec_active;
  Mutex.unlock st.lock;
  Fun.protect
    ~finally:(fun () ->
      locked st (fun () ->
          st.exec_active <- st.exec_active - 1;
          Condition.broadcast st.exec_cond))
    (fun () -> Domain.join (Domain.spawn f))

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '-')
    name

(* N-in-M sampling by execution sequence number: cheap, deterministic,
   and uniform over windows — production traffic yields traces without
   paying the serialization cost on every request *)
let maybe_trace st ~recorder ~design ~key =
  match st.trace_dir with
  | None -> ()
  | Some dir ->
    let n, m = st.trace_sample in
    let seq =
      locked st (fun () ->
          let s = st.trace_seq in
          st.trace_seq <- s + 1;
          s)
    in
    if seq mod m < n then begin
      let file =
        Printf.sprintf "%s/%06d-%s-%s.trace.json" dir seq (sanitize design)
          (String.sub key 0 (min 8 (String.length key)))
      in
      (try Obs.Recorder.write_trace recorder file
       with Sys_error e ->
         slog st Slog.Warn ~event:"trace"
           [ ("file", Json.Str file); ("error", Json.Str e) ])
    end

(* The per-request sequence inside the domain — fresh recorder, enable,
   compile, capture — is exactly the single-shot [scc compile D --metrics]
   sequence, which is what keeps a daemon snapshot byte-identical to
   the committed baselines.  [with_certify] and [with_log] scope
   certification and the pass journal to this request: a concurrent
   plain compile never sees a neighbour's [--certify] or passes. *)
let do_compile st ~key (spec : P.compile_spec) =
  match spec.style with
  | "gates" | "pla" | "verilog" ->
    run_on_domain st (fun () ->
        locked st (fun () -> st.executions <- st.executions + 1);
        let recorder = Obs.Recorder.create () in
        Obs.Recorder.enable recorder;
        Obs.with_recorder recorder (fun () ->
            let res, log =
              Pipeline.with_certify spec.certify (fun () ->
                  Pipeline.with_log (fun () ->
                      match spec.style with
                      | "verilog" ->
                        Sc_core.Compiler.compile_verilog
                          ~restarts:spec.restarts spec.source
                      | "pla" ->
                        Sc_core.Compiler.compile_behavior
                          ~style:Sc_core.Compiler.Pla_control
                          ~restarts:spec.restarts spec.source
                      | _ ->
                        Sc_core.Compiler.compile_behavior
                          ~style:Sc_core.Compiler.Random_logic
                          ~restarts:spec.restarts spec.source))
            in
            let passes =
              List.map
                (fun (name, s) -> (name, Pipeline.status_to_string s))
                log
            in
            Obs.Recorder.disable recorder;
            maybe_trace st ~recorder ~design:spec.design ~key;
            match res with
            | Ok (c, circuit) ->
              let snapshot = Metrics.capture ~recorder ~design:spec.design () in
              let s = Sc_netlist.Circuit.stats circuit in
              O_ok
                { snapshot
                ; cif_bytes = String.length c.Sc_core.Compiler.cif
                ; gates = s.Sc_netlist.Circuit.gate_total
                ; flipflops = s.Sc_netlist.Circuit.flipflops
                ; transistors = c.Sc_core.Compiler.transistors
                ; area = c.Sc_core.Compiler.area
                ; drc_violations = c.Sc_core.Compiler.drc_violations
                ; passes
                }
            | Error d -> O_diag d))
  | other ->
    O_diag
      (Diag.v ~stage:"serve"
         (Printf.sprintf
            "unknown style %S (expected \"gates\", \"pla\" or \"verilog\")"
            other))

let compile_key (spec : P.compile_spec) =
  Sc_cache.Cache.digest
    (spec.style ^ "|" ^ string_of_int spec.restarts ^ "|"
    ^ (if spec.certify then "certify" else "")
    ^ "\x00" ^ spec.source)

(* the first requester of a key executes; concurrent identical
   requests share its outcome.  [executed] tells the request log which
   one this was. *)
let compile st spec =
  let key = compile_key spec in
  let how, outcome =
    Sc_par.Single_flight.run st.flights key (fun () ->
        try do_compile st ~key spec
        with e -> O_diag (Diag.of_exn ~stage:"serve" e))
  in
  let executed = how = `Fresh in
  if not executed then locked st (fun () -> st.dedup_hits <- st.dedup_hits + 1);
  (outcome, key, executed)

(* --- equiv --- *)

(* the daemon never reads client paths: only builtin specs resolve *)
let resolve_circuit spec =
  match Sc_core.Designs.circuit spec with
  | Some r -> r
  | None -> Error (spec ^ ": expected hand:NAME or isp:NAME")

let do_equiv st ~a ~b ~k =
  match (resolve_circuit a, resolve_circuit b) with
  | Error e, _ | _, Error e -> P.Error_reply { stage = "equiv"; message = e }
  | Ok ca, Ok cb -> (
    (* the BDD engine runs on the shared pool; like compiles it gets
       its own execution domain and overlaps with everything else *)
    match
      run_on_domain st (fun () ->
          match Sc_equiv.Checker.check_cones ~k ca cb with
          | v -> `Verdict v
          | exception Invalid_argument e -> `Invalid e
          | exception Sc_equiv.Miter.Mismatch e -> `Mismatch e)
    with
    | `Verdict Sc_equiv.Checker.Equivalent ->
      P.Equiv_verdict { equivalent = true; detail = "equivalent" }
    | `Verdict (Sc_equiv.Checker.Not_equivalent _ as v) ->
      P.Equiv_verdict
        { equivalent = false
        ; detail = Format.asprintf "%a" Sc_equiv.Checker.pp_verdict v
        }
    | `Invalid e -> P.Error_reply { stage = "equiv"; message = e }
    | `Mismatch e ->
      P.Error_reply { stage = "equiv"; message = "port mismatch: " ^ e })

(* --- request dispatch --- *)

let compiled_response (o : outcome) mk =
  match o with
  | O_diag d ->
    P.Error_reply { stage = d.Diag.stage; message = d.Diag.message }
  | O_ok r -> mk r

let server_stats st =
  locked st (fun () ->
      { requests = st.requests
      ; in_flight = st.active
      ; dedup_hits = st.dedup_hits
      ; executions = st.executions
      ; peak_executions = st.peak_executions
      })

let latency_counters st =
  let hs =
    locked st (fun () ->
        Hashtbl.fold (fun verb h acc -> (verb, h) :: acc) st.latency [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.concat_map
    (fun (verb, h) ->
      let p q = Histogram.percentile h q in
      [ ("latency." ^ verb ^ ".count", Histogram.count h)
      ; ("latency." ^ verb ^ ".p50_us", p 50.0)
      ; ("latency." ^ verb ^ ".p95_us", p 95.0)
      ; ("latency." ^ verb ^ ".p99_us", p 99.0)
      ])
    hs

let stats_reply st =
  let s = server_stats st in
  let cache =
    List.fold_left
      (fun (h, dh, m, st', ev) (_, (c : Sc_cache.Cache.stats)) ->
        ( h + c.Sc_cache.Cache.hits
        , dh + c.Sc_cache.Cache.disk_hits
        , m + c.Sc_cache.Cache.misses
        , st' + c.Sc_cache.Cache.stale
        , ev + c.Sc_cache.Cache.evictions ))
      (0, 0, 0, 0, 0)
      (Pipeline.cache_stats ())
  in
  let h, dh, m, stale, ev = cache in
  let verbs =
    locked st (fun () ->
        Hashtbl.fold (fun verb n acc -> (verb, n) :: acc) st.verb_counts [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  P.Stats_reply
    { counters =
        [ ("serve.requests", s.requests)
        ; ("serve.in_flight", s.in_flight)
        ; ("serve.dedup_hits", s.dedup_hits)
        ; ("serve.executions", s.executions)
        ; ("serve.peak_executions", s.peak_executions)
        ; ("cache.hits", h)
        ; ("cache.disk_hits", dh)
        ; ("cache.misses", m)
        ; ("cache.stale", stale)
        ; ("cache.evictions", ev)
        ]
        @ latency_counters st
    ; uptime_s = Some (int_of_float (Unix.gettimeofday () -. st.started))
    ; server_version = Some server_version
    ; verbs
    }

(* [handle] answers a request and returns the structured-log fields
   describing what happened (digest, dedup/cache/cert outcome, ...) *)
let pass_counts passes =
  List.fold_left
    (fun (hit, ran) (_, status) ->
      if status = "ran" then (hit, ran + 1)
      else if String.length status >= 3 && String.sub status 0 3 = "hit" then
        (hit + 1, ran)
      else (hit, ran))
    (0, 0) passes

let compile_fields (outcome, key, executed) (spec : P.compile_spec) =
  let base =
    [ ("design", Json.Str spec.design)
    ; ("digest", Json.Str (String.sub key 0 (min 12 (String.length key))))
    ; ("certify", Json.Bool spec.certify)
    ; ("dedup", Json.Bool (not executed))
    ]
  in
  match outcome with
  | O_ok r ->
    let hit, ran = pass_counts r.passes in
    base @ [ ("passes_hit", jnum hit); ("passes_ran", jnum ran) ]
  | O_diag _ -> base

let handle st (req : P.request) : P.response * (string * Json.t) list =
  match req with
  | P.Compile spec ->
    let ((outcome, _, _) as c) = compile st spec in
    ( compiled_response outcome (fun r ->
          P.Compiled
            { snapshot = Metrics.to_json r.snapshot
            ; cif_bytes = r.cif_bytes
            ; gates = r.gates
            ; flipflops = r.flipflops
            ; transistors = r.transistors
            ; area = r.area
            ; drc_violations = r.drc_violations
            ; passes = r.passes
            })
    , compile_fields c spec )
  | P.Report spec ->
    let ((outcome, _, _) as c) = compile st spec in
    ( compiled_response outcome (fun r ->
          P.Reported (Format.asprintf "%a" Metrics.pp_snapshot r.snapshot))
    , compile_fields c spec )
  | P.Diff { spec; baseline } -> (
    match Metrics.of_json baseline with
    | Error e ->
      ( P.Error_reply { stage = "diff"; message = "baseline: " ^ e }
      , [ ("design", Json.Str spec.design) ] )
    | Ok base ->
      let ((outcome, _, _) as c) = compile st spec in
      ( compiled_response outcome (fun r ->
            let report = Metrics.diff base r.snapshot in
            P.Diffed
              { report = Format.asprintf "%a" Metrics.pp_report report
              ; regressed = Metrics.gate report
              })
      , compile_fields c spec ))
  | P.Equiv { a; b; k } ->
    ( do_equiv st ~a ~b ~k
    , [ ("a", Json.Str a); ("b", Json.Str b); ("k", jnum k) ] )
  | P.Stats -> (stats_reply st, [])
  | P.Shutdown -> (P.Bye, [])

let safe_handle st req =
  try handle st req
  with e ->
    let d = Diag.of_exn ~stage:"serve" e in
    (P.Error_reply { stage = d.Diag.stage; message = d.Diag.message }, [])

(* --- connections --- *)

let request_stop st =
  let first =
    locked st (fun () ->
        if st.stop then false
        else begin
          st.stop <- true;
          true
        end)
  in
  if first then
    (* one byte on the self-pipe wakes the accept loop's select *)
    try ignore (Unix.write st.stop_w (Bytes.make 1 'x') 0 1) with _ -> ()

let verb_of_request = function
  | P.Compile _ -> "compile"
  | P.Report _ -> "report"
  | P.Diff _ -> "diff"
  | P.Equiv _ -> "equiv"
  | P.Stats -> "stats"
  | P.Shutdown -> "shutdown"

(* completed-request accounting: the verb count and the latency sample
   land together, so a [stats] scrape always sees them agree *)
let account st verb dur_us =
  let h =
    locked st (fun () ->
        let n = try Hashtbl.find st.verb_counts verb with Not_found -> 0 in
        Hashtbl.replace st.verb_counts verb (n + 1);
        match Hashtbl.find_opt st.latency verb with
        | Some h -> h
        | None ->
          let h = Histogram.create () in
          Hashtbl.add st.latency verb h;
          h)
  in
  Histogram.add h dur_us

let log_request st ~conn ~verb ~dur_us ~resp fields =
  match st.slog with
  | None -> ()
  | Some l ->
    let status, level =
      match resp with
      | P.Error_reply { stage; _ } -> ("error:" ^ stage, Slog.Warn)
      | _ -> ("ok", if verb = "stats" then Slog.Debug else Slog.Info)
    in
    if Slog.would_log l level then
      Slog.log l level ~event:"request"
        ([ ("conn", jnum conn)
         ; ("verb", Json.Str verb)
         ; ("status", Json.Str status)
         ; ("dur_us", jnum dur_us)
         ]
        @ fields)

let serve_connection st conn fd =
  slog st Slog.Debug ~event:"connect" [ ("conn", jnum conn) ];
  let rec loop () =
    match P.read_frame fd with
    | Ok None -> ()
    | Error e ->
      (* protocol violation: answer once, then drop the connection *)
      slog st Slog.Warn ~event:"protocol"
        [ ("conn", jnum conn); ("error", Json.Str e) ];
      (try
         P.write_frame fd
           (P.string_of_response
              (P.Error_reply { stage = "protocol"; message = e }))
       with _ -> ())
    | Ok (Some payload) ->
      let t0 = Unix.gettimeofday () in
      locked st (fun () ->
          st.requests <- st.requests + 1;
          st.active <- st.active + 1);
      let verb, (resp, fields), shutdown =
        match P.request_of_string payload with
        | Error e ->
          ( "protocol"
          , (P.Error_reply { stage = "protocol"; message = e }, [])
          , false )
        | Ok P.Shutdown -> ("shutdown", (P.Bye, []), true)
        | Ok req -> (verb_of_request req, safe_handle st req, false)
      in
      locked st (fun () -> st.active <- st.active - 1);
      let dur_us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
      account st verb dur_us;
      log_request st ~conn ~verb ~dur_us ~resp fields;
      let sent =
        try
          P.write_frame fd (P.string_of_response resp);
          true
        with _ -> false
      in
      if shutdown then request_stop st
      else if sent then loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      locked st (fun () ->
          st.conns <- List.filter (fun c -> c != fd) st.conns);
      slog st Slog.Debug ~event:"disconnect" [ ("conn", jnum conn) ];
      try Unix.close fd with _ -> ())
    loop

(* --- the daemon --- *)

let run ?(jobs = 1) ?stage_cache ?(handle_signals = true) ?exec_domains ?log
    ?(log_level = Slog.Info) ?trace_dir ?(trace_sample = (1, 1)) ~socket () =
  Sc_par.Pool.set_default_size jobs;
  (match stage_cache with
  | Some dir -> Pipeline.enable_cache ~dir ()
  | None -> Pipeline.enable_cache ());
  let exec_slots =
    match exec_domains with
    | Some n -> max 1 n
    | None -> max 2 (Domain.recommended_domain_count ())
  in
  let trace_sample =
    let n, m = trace_sample in
    let m = max 1 m in
    (max 0 (min n m), m)
  in
  (match trace_dir with
  | Some dir when not (Sys.file_exists dir) -> (
    try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ())
  | _ -> ());
  let slog_t =
    match log with
    | None -> Ok None
    | Some path -> (
      match Slog.create ~level:log_level path with
      | Ok l -> Ok (Some l)
      | Error e -> Error e)
  in
  match slog_t with
  | Error e ->
    Printf.eprintf "scc serve: cannot open log: %s\n%!" e;
    1
  | Ok slog_t ->
    if Sys.file_exists socket then (try Unix.unlink socket with _ -> ());
    let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind listen_fd (Unix.ADDR_UNIX socket);
    Unix.listen listen_fd 64;
    let stop_r, stop_w = Unix.pipe () in
    let st =
      { lock = Mutex.create ()
      ; flights = Sc_par.Single_flight.create ()
      ; requests = 0
      ; active = 0
      ; dedup_hits = 0
      ; executions = 0
      ; exec_cond = Condition.create ()
      ; exec_slots
      ; exec_active = 0
      ; peak_executions = 0
      ; verb_counts = Hashtbl.create 8
      ; latency = Hashtbl.create 8
      ; started = Unix.gettimeofday ()
      ; slog = slog_t
      ; trace_dir
      ; trace_sample
      ; trace_seq = 0
      ; conn_seq = 0
      ; stop = false
      ; conns = []
      ; threads = []
      ; listen_fd
      ; stop_w
      }
    in
    if handle_signals then begin
      let stop_on _ = request_stop st in
      (try Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_on)
       with Invalid_argument _ -> ());
      (try Sys.set_signal Sys.sigint (Sys.Signal_handle stop_on)
       with Invalid_argument _ -> ());
      try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
      with Invalid_argument _ -> ()
    end;
    Printf.eprintf "scc serve: listening on %s (%s, jobs %d, %d exec slots)\n%!"
      socket
      (match stage_cache with
      | Some dir -> "stage cache " ^ dir
      | None -> "stage cache in memory")
      jobs exec_slots;
    slog st Slog.Info ~event:"start"
      ([ ("socket", Json.Str socket)
       ; ("jobs", jnum jobs)
       ; ("exec_slots", jnum exec_slots)
       ; ("version", Json.Str server_version)
       ]
      @ (match stage_cache with
        | Some dir -> [ ("stage_cache", Json.Str dir) ]
        | None -> [])
      @
      match trace_dir with
      | Some dir ->
        let n, m = trace_sample in
        [ ("trace_dir", Json.Str dir)
        ; ("trace_sample", Json.Str (Printf.sprintf "%d/%d" n m))
        ]
      | None -> []);
    let rec accept_loop () =
      if not (locked st (fun () -> st.stop)) then begin
        match Unix.select [ listen_fd; stop_r ] [] [] (-1.0) with
        | ready, _, _ ->
          if List.memq stop_r ready then () (* stop byte: fall through *)
          else begin
            (match Unix.accept listen_fd with
            | fd, _ ->
              let conn =
                locked st (fun () ->
                    st.conns <- fd :: st.conns;
                    st.conn_seq <- st.conn_seq + 1;
                    st.conn_seq)
              in
              let t = Thread.create (fun () -> serve_connection st conn fd) () in
              locked st (fun () -> st.threads <- t :: st.threads)
            | exception
                Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
              ());
            accept_loop ()
          end
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      end
    in
    accept_loop ();
    (* wake any connection blocked between frames, then drain *)
    let conns = locked st (fun () -> st.conns) in
    List.iter
      (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with _ -> ())
      conns;
    List.iter Thread.join (locked st (fun () -> st.threads));
    (try Unix.close listen_fd with _ -> ());
    (try Unix.close stop_r with _ -> ());
    (try Unix.close stop_w with _ -> ());
    (try Unix.unlink socket with _ -> ());
    let s = server_stats st in
    slog st Slog.Info ~event:"stop"
      [ ("requests", jnum s.requests)
      ; ("executions", jnum s.executions)
      ; ("dedup_hits", jnum s.dedup_hits)
      ; ("peak_executions", jnum s.peak_executions)
      ];
    (match st.slog with Some l -> Slog.close l | None -> ());
    Printf.eprintf
      "scc serve: shutdown after %d requests (%d executions, %d dedup hits, \
       peak %d concurrent)\n\
       %!"
      s.requests s.executions s.dedup_hits s.peak_executions;
    0
