(* The compile daemon: wire protocol codecs, frame handling on real
   file descriptors, and a live in-process server exercised over its
   Unix-domain socket — including the in-flight dedup guarantee. *)

module P = Sc_serve.Protocol
module Json = Sc_obs.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- codecs: every variant survives encode -> decode --- *)

let spec =
  { P.design = "counter"
  ; source = "module counter; inputs a[1]; end"
  ; style = "gates"
  ; restarts = 3
  ; certify = false
  }

let requests : (string * P.request) list =
  [ ("compile", P.Compile spec)
  ; ("compile certified", P.Compile { spec with P.certify = true })
  ; ("equiv", P.Equiv { a = "isp:counter"; b = "hand:counter"; k = 8 })
  ; ("stats", P.Stats)
  ; ("shutdown", P.Shutdown)
  ]

let responses : (string * P.response) list =
  [ ( "compiled"
    , P.Compiled
        { snapshot = Json.Obj [ ("design", Json.Str "counter") ]
        ; cif_bytes = 18880
        ; gates = 22
        ; flipflops = 4
        ; transistors = 250
        ; area = 84000
        ; drc_violations = 0
        ; passes = [ ("parse", "ran"); ("emit", "hit (memory)") ]
        } )
  ; ("equiv", P.Equiv_verdict { equivalent = true; detail = "equivalent" })
  ; ( "stats"
    , P.Stats_reply
        { counters = [ ("serve.requests", 7); ("cache.hits", 40) ]
        ; uptime_s = Some 12
        ; server_version = Some "serve/2"
        ; verbs = [ ("compile", 5); ("stats", 2) ]
        } )
  ; ( "stats without telemetry"
    , P.Stats_reply
        { counters = [ ("serve.requests", 7) ]
        ; uptime_s = None
        ; server_version = None
        ; verbs = []
        } )
  ; ("bye", P.Bye)
  ; ("error", P.Error_reply { stage = "parse"; message = "line 3: nope" })
  ]

let test_request_roundtrip () =
  List.iter
    (fun (name, req) ->
      match P.request_of_string (P.string_of_request req) with
      | Ok got -> check_bool (name ^ " roundtrips") true (got = req)
      | Error e -> Alcotest.failf "%s failed to decode: %s" name e)
    requests

let test_response_roundtrip () =
  List.iter
    (fun (name, resp) ->
      match P.response_of_string (P.string_of_response resp) with
      | Ok got -> check_bool (name ^ " roundtrips") true (got = resp)
      | Error e -> Alcotest.failf "%s failed to decode: %s" name e)
    responses

let test_decode_rejects_garbage () =
  let bad s =
    match (P.request_of_string s, P.response_of_string s) with
    | Error _, Error _ -> ()
    | _ -> Alcotest.failf "decoded garbage %S" s
  in
  bad "not json at all";
  bad "{\"t\": \"launch_missiles\"}";
  bad "{\"no\": \"tag\"}";
  (* a request with the right tag but a missing field *)
  bad "{\"t\": \"compile\", \"design\": \"counter\"}";
  (* a \u escape that is not hex is an error, not an exception that
     kills the connection's thread *)
  bad "{\"t\": \"compile\", \"design\": \"\\uzzzz\"}"

(* --- framing on real file descriptors --- *)

let with_pipe f =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with _ -> ());
      try Unix.close w with _ -> ())
    (fun () -> f r w)

let write_all w s =
  let b = Bytes.of_string s in
  let n = Unix.write w b 0 (Bytes.length b) in
  check_int "short write in test rig" (Bytes.length b) n

let test_frame_roundtrip () =
  with_pipe @@ fun r w ->
  P.write_frame w "hello frames";
  P.write_frame w "";
  (match P.read_frame r with
  | Ok (Some "hello frames") -> ()
  | _ -> Alcotest.fail "first frame lost");
  (match P.read_frame r with
  | Ok (Some "") -> ()
  | _ -> Alcotest.fail "empty frame is legal");
  Unix.close w;
  match P.read_frame r with
  | Ok None -> ()
  | _ -> Alcotest.fail "closing between frames is a clean EOF"

let test_frame_truncated_header () =
  with_pipe @@ fun r w ->
  write_all w "\x00\x00";
  Unix.close w;
  match P.read_frame r with
  | Error e ->
    check_bool "mentions truncation" true
      (String.length e > 0 && String.sub e 0 9 = "truncated")
  | _ -> Alcotest.fail "a torn header must be an error, not EOF"

let test_frame_truncated_payload () =
  with_pipe @@ fun r w ->
  (* header promises 10 bytes, the stream dies after 3 *)
  write_all w "\x00\x00\x00\x0aabc";
  Unix.close w;
  match P.read_frame r with
  | Error _ -> ()
  | _ -> Alcotest.fail "a torn payload must be an error"

let test_frame_oversized () =
  with_pipe @@ fun r w ->
  (* 4 GiB - 1 claimed: rejected from the header alone, nothing read *)
  write_all w "\xff\xff\xff\xff";
  match P.read_frame r with
  | Error e ->
    check_bool "mentions the limit" true
      (String.length e >= 9 && String.sub e 0 9 = "oversized")
  | _ -> Alcotest.fail "an oversized length must be rejected"

(* --- the live daemon --- *)

let with_server ?exec_domains ?log ?log_level ?trace_dir
    ?trace_sample f =
  let socket =
    Filename.temp_file "scc-test-serve" ".sock"
  in
  Sys.remove socket;
  let exit_code = ref (-1) in
  let server =
    Thread.create
      (fun () ->
        exit_code :=
          Sc_serve.Server.run ~handle_signals:false ?exec_domains ?log
            ?log_level ?trace_dir ?trace_sample ~socket ())
      ()
  in
  let rec await n =
    if n = 0 then Alcotest.fail "daemon did not come up"
    else if not (Sys.file_exists socket) then begin
      Thread.delay 0.05;
      await (n - 1)
    end
  in
  await 100;
  Fun.protect
    ~finally:(fun () ->
      (match Sc_serve.Client.one_shot socket P.Shutdown with
      | Ok P.Bye -> ()
      | Ok _ -> Alcotest.fail "shutdown: expected Bye"
      | Error e -> Alcotest.failf "shutdown: %s" e);
      Thread.join server;
      check_int "daemon exits 0" 0 !exit_code;
      check_bool "socket unlinked on shutdown" false (Sys.file_exists socket);
      (* the daemon enables the process-global stage cache; put the
         world back for whatever test runs next *)
      Sc_pipeline.Pipeline.disable_cache ();
      Sc_pipeline.Pipeline.clear_caches ())
    (fun () -> f socket)

let rpc socket req =
  match Sc_serve.Client.one_shot socket req with
  | Ok r -> r
  | Error e -> Alcotest.failf "rpc failed: %s" e

let stats socket =
  match rpc socket P.Stats with
  | P.Stats_reply s -> s
  | _ -> Alcotest.fail "expected Stats_reply"

let stat socket key =
  match List.assoc_opt key (stats socket).P.counters with
  | Some v -> v
  | None -> Alcotest.failf "no %s counter" key

let counter_spec =
  match Sc_core.Designs.builtin "counter" with
  | Some source ->
    { P.design = "counter"; source; style = "gates"; restarts = 0
    ; certify = false
    }
  | None -> assert false

let pdp8_spec =
  match Sc_core.Designs.builtin "pdp8" with
  | Some source ->
    { P.design = "pdp8"; source; style = "gates"; restarts = 0
    ; certify = false
    }
  | None -> assert false

let test_two_client_dedup () =
  with_server @@ fun socket ->
  (* two clients, one slow cold compile in flight: exactly one pipeline
     execution, the second rides along as a dedup hit.  The second
     names the same source differently; the design name is not part of
     the dedup key, and each snapshot carries its own requester's. *)
  let specs = [| pdp8_spec; { pdp8_spec with P.design = "pdp8-copy" } |] in
  let replies = Array.make 2 None in
  let threads =
    List.init 2 (fun i ->
        Thread.create
          (fun () -> replies.(i) <- Some (rpc socket (P.Compile specs.(i))))
          ())
  in
  List.iter Thread.join threads;
  let snapshots =
    Array.to_list replies
    |> List.map (function
         | Some (P.Compiled c) -> (
           match Sc_metrics.Metrics.of_json c.P.snapshot with
           | Ok s -> s
           | Error e -> Alcotest.failf "snapshot: %s" e)
         | Some (P.Error_reply { stage; message }) ->
           Alcotest.failf "compile failed: %s: %s" stage message
         | _ -> Alcotest.fail "expected Compiled")
  in
  (match snapshots with
  | [ a; b ] ->
    check_string "first snapshot names its design" "pdp8"
      a.Sc_metrics.Metrics.design;
    check_string "second snapshot names its design" "pdp8-copy"
      b.Sc_metrics.Metrics.design;
    check_bool "both clients share one snapshot otherwise" true
      (a = { b with Sc_metrics.Metrics.design = "pdp8" })
  | _ -> assert false);
  check_int "one pipeline execution" 1 (stat socket "serve.executions");
  check_bool "dedup hit counted" true (stat socket "serve.dedup_hits" >= 1);
  (* a later identical request is warm: it executes, but every pass is
     served from the shared stage cache *)
  match rpc socket (P.Compile pdp8_spec) with
  | P.Compiled c ->
    check_bool "warm request: all passes hit" true
      (c.P.passes <> []
      && List.for_all (fun (_, st) -> st = "hit (memory)") c.P.passes)
  | _ -> Alcotest.fail "expected Compiled"

let test_server_verbs_and_errors () =
  with_server @@ fun socket ->
  (* equiv through the daemon *)
  (match rpc socket (P.Equiv { a = "isp:counter"; b = "hand:counter"; k = 8 }) with
  | P.Equiv_verdict { equivalent = true; _ } -> ()
  | _ -> Alcotest.fail "counter should be equivalent to its hand baseline");
  (match rpc socket (P.Equiv { a = "hand:alu4"; b = "hand:alu"; k = 4 }) with
  | P.Equiv_verdict { equivalent = true; _ } -> ()
  | _ -> Alcotest.fail "hand:alu4 and hand:alu name the same baseline");
  (match rpc socket (P.Equiv { a = "isp:nonsuch"; b = "hand:counter"; k = 8 }) with
  | P.Error_reply _ -> ()
  | _ -> Alcotest.fail "unknown design must be a structured error");
  (* a broken source is a Diag error carried as a value *)
  (match
     rpc socket (P.Compile { counter_spec with P.source = "not ISP at all" })
   with
  | P.Error_reply { stage; _ } ->
    check_bool "error carries its stage" true (String.length stage > 0)
  | _ -> Alcotest.fail "expected Error_reply");
  (* an unknown style is rejected without touching the pipeline *)
  (match rpc socket (P.Compile { counter_spec with P.style = "quantum" }) with
  | P.Error_reply { stage = "serve"; _ } -> ()
  | _ -> Alcotest.fail "unknown style must be rejected");
  (* a frame that is not JSON gets a protocol error back on the same
     connection rather than killing the daemon *)
  let garbage_reply fd =
    Fun.protect
      ~finally:(fun () -> Sc_serve.Client.close fd)
      (fun () ->
        P.write_frame fd "this is not a request";
        match P.read_frame fd with
        | Ok (Some payload) -> P.response_of_string payload
        | _ -> Error "no reply to garbage frame")
  in
  match Result.bind (Sc_serve.Client.connect socket) garbage_reply with
  | Ok (P.Error_reply { stage = "protocol"; _ }) -> ()
  | _ -> Alcotest.fail "garbage frame must yield a protocol error"

(* certify rides the wire: a certified request compiles, its snapshot
   carries the certificate counters, and the uncertified variant of the
   same design is a distinct dedup key (its snapshot has no
   certificates) *)
let test_certified_compile_via_daemon () =
  with_server @@ fun socket ->
  let certified_passes c =
    match Json.member "qor" c.P.snapshot with
    | Some qor -> (
      match Json.member "equiv.certified_passes" qor with
      | Some (Json.Num n) -> int_of_float n
      | _ -> 0)
    | None -> 0
  in
  (match rpc socket (P.Compile { counter_spec with P.certify = true }) with
  | P.Compiled c ->
    check_bool "certified request proves a pass" true (certified_passes c >= 1)
  | P.Error_reply { stage; message } ->
    Alcotest.failf "certified compile failed: %s: %s" stage message
  | _ -> Alcotest.fail "expected Compiled");
  match rpc socket (P.Compile counter_spec) with
  | P.Compiled c ->
    check_int "uncertified request carries no certificate" 0
      (certified_passes c)
  | _ -> Alcotest.fail "expected Compiled"

let verilog_spec =
  { P.design = "blinker"
  ; source =
      "module blinker(input clk, output reg q);\n\
      \  always @(posedge clk) q <= ~q;\nendmodule\n"
  ; style = "verilog"
  ; restarts = 0
  ; certify = false
  }

let test_verilog_style () =
  with_server @@ fun socket ->
  (* the verilog style compiles through the same daemon... *)
  (match rpc socket (P.Compile verilog_spec) with
  | P.Compiled c ->
    check_bool "flip-flop synthesized" true (c.P.flipflops >= 1);
    check_bool "layout measured" true (c.P.area > 0)
  | P.Error_reply { stage; message } ->
    Alcotest.failf "verilog compile failed: %s: %s" stage message
  | _ -> Alcotest.fail "expected Compiled");
  (* ...shares the stage cache on a repeat... *)
  (match rpc socket (P.Compile verilog_spec) with
  | P.Compiled c ->
    check_bool "warm verilog request: all passes hit" true
      (c.P.passes <> []
      && List.for_all (fun (_, st) -> st = "hit (memory)") c.P.passes)
  | _ -> Alcotest.fail "expected Compiled");
  (* ...and a frontend error comes back as a positioned Diag value *)
  match
    rpc socket
      (P.Compile { verilog_spec with P.source = "module t(input a endmodule" })
  with
  | P.Error_reply { stage = "verilog.parse"; message } ->
    check_bool "error is positioned" true (String.contains message ':')
  | P.Error_reply { stage; _ } -> Alcotest.failf "wrong stage %S" stage
  | _ -> Alcotest.fail "expected Error_reply"

(* --- daemon telemetry: stats fields, structured log, sampled traces --- *)

let test_stats_telemetry () =
  with_server @@ fun socket ->
  (match rpc socket (P.Compile counter_spec) with
  | P.Compiled _ -> ()
  | _ -> Alcotest.fail "expected Compiled");
  (match rpc socket (P.Compile counter_spec) with
  | P.Compiled _ -> ()
  | _ -> Alcotest.fail "expected Compiled");
  let s = stats socket in
  (match s.P.server_version with
  | Some v ->
    Alcotest.(check string) "version" "serve/2" v
  | None -> Alcotest.fail "stats reply missing version");
  (match s.P.uptime_s with
  | Some u -> check_bool "uptime non-negative" true (u >= 0)
  | None -> Alcotest.fail "stats reply missing uptime");
  (* the verb counts, the latency histogram and the request counter all
     agree on how many compiles were answered *)
  (match List.assoc_opt "compile" s.P.verbs with
  | Some n -> check_int "verb count matches requests sent" 2 n
  | None -> Alcotest.fail "no per-verb count for compile");
  (match List.assoc_opt "latency.compile.count" s.P.counters with
  | Some n -> check_int "histogram count matches verb count" 2 n
  | None -> Alcotest.fail "no latency histogram for compile");
  let quantile q =
    match List.assoc_opt ("latency.compile." ^ q) s.P.counters with
    | Some v ->
      check_bool ("compile " ^ q ^ " positive") true (v > 0);
      v
    | None -> Alcotest.failf "no latency.compile.%s" q
  in
  let p50 = quantile "p50_us" in
  let p95 = quantile "p95_us" in
  let p99 = quantile "p99_us" in
  check_bool "p50 <= p95" true (p50 <= p95);
  check_bool "p95 <= p99" true (p95 <= p99);
  check_bool "peak_executions served" true
    (stat socket "serve.peak_executions" >= 1)

(* a pre-telemetry daemon's stats reply — counters only — must still
   decode: the new fields are absent-tolerant like compile_spec.certify *)
let test_stats_decode_compat () =
  let wire =
    {|{"t": "stats", "counters": {"serve.requests": 3, "cache.hits": 9}}|}
  in
  match P.response_of_string wire with
  | Ok (P.Stats_reply s) ->
    check_int "counters decoded" 2 (List.length s.P.counters);
    check_bool "uptime absent" true (s.P.uptime_s = None);
    check_bool "version absent" true (s.P.server_version = None);
    check_bool "verbs absent" true (s.P.verbs = []);
    check_int "counter value" 9
      (Option.value ~default:0 (List.assoc_opt "cache.hits" s.P.counters))
  | Ok _ -> Alcotest.fail "decoded to the wrong response"
  | Error e -> Alcotest.failf "pre-telemetry stats failed to decode: %s" e

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      List.rev !lines)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Sys.rmdir dir
  end

let test_log_and_trace () =
  let log = Filename.temp_file "scc-test-serve" ".jsonl" in
  let trace_dir = Filename.temp_file "scc-test-serve" ".traces" in
  Sys.remove trace_dir;
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove log with Sys_error _ -> ());
      rm_rf trace_dir)
    (fun () ->
      with_server ~log ~log_level:Sc_obs.Slog.Debug ~trace_dir
        ~trace_sample:(1, 1)
      @@ fun socket ->
      (match rpc socket (P.Compile counter_spec) with
      | P.Compiled _ -> ()
      | _ -> Alcotest.fail "expected Compiled");
      ignore (stats socket);
      (* every line written so far is a complete JSON object *)
      let lines = read_lines log in
      check_bool "log has lines" true (List.length lines >= 2);
      let parsed =
        List.map
          (fun line ->
            match Json.parse line with
            | Ok v -> v
            | Error e ->
              Alcotest.failf "log line is not valid JSON: %s (%s)" line e)
          lines
      in
      let by_event name =
        List.filter (fun v -> Json.member "event" v = Some (Json.Str name)) parsed
      in
      check_int "one start event" 1 (List.length (by_event "start"));
      let requests = by_event "request" in
      check_bool "request lines present" true (List.length requests >= 2);
      let compile_line =
        List.find_opt
          (fun v -> Json.member "verb" v = Some (Json.Str "compile"))
          requests
      in
      (match compile_line with
      | Some v ->
        check_bool "request line names the design" true
          (Json.member "design" v = Some (Json.Str "counter"));
        check_bool "request line has a status" true
          (Json.member "status" v = Some (Json.Str "ok"));
        (match Json.member "dur_us" v with
        | Some (Json.Num d) -> check_bool "duration recorded" true (d >= 0.0)
        | _ -> Alcotest.fail "request line missing dur_us")
      | None -> Alcotest.fail "no request line for the compile");
      check_bool "debug connect lines pass the Debug filter" true
        (by_event "connect" <> []);
      (* the execution wrote its sampled Chrome trace *)
      let traces =
        Sys.readdir trace_dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".trace.json")
      in
      check_int "one trace for one execution" 1 (List.length traces);
      let trace_file = Filename.concat trace_dir (List.hd traces) in
      check_bool "trace file names the design" true
        (let base = Filename.basename trace_file in
         let re = "counter" in
         let found = ref false in
         let n = String.length base and m = String.length re in
         for i = 0 to n - m do
           if String.sub base i m = re then found := true
         done;
         !found);
      match Json.parse (String.concat "\n" (read_lines trace_file)) with
      | Ok v -> (
        match Json.member "traceEvents" v with
        | Some (Json.Arr evs) ->
          check_bool "trace has span events" true
            (List.exists
               (fun e -> Json.member "ph" e = Some (Json.Str "X"))
               evs)
        | _ -> Alcotest.fail "trace missing traceEvents")
      | Error e -> Alcotest.failf "trace does not parse: %s" e)

(* Executions run on the daemon's execution domains, spawned once: the
   Chrome traces of 14 executions — sequential, concurrent, and one
   that fails — carry at most [exec_domains] domain ids, and each
   trace one.  A domain per execution would give 14. *)
let test_executions_reuse_domains () =
  let trace_dir = Filename.temp_file "scc-test-serve" ".traces" in
  Sys.remove trace_dir;
  Fun.protect ~finally:(fun () -> rm_rf trace_dir) @@ fun () ->
  with_server ~exec_domains:2 ~trace_dir ~trace_sample:(1, 1)
  @@ fun socket ->
  let compiled what = function
    | P.Compiled _ -> ()
    | P.Error_reply { stage; message } ->
      Alcotest.failf "%s compile failed: %s: %s" what stage message
    | _ -> Alcotest.failf "%s compile: expected Compiled" what
  in
  (* distinct restarts are distinct dedup keys: every request executes *)
  let spec restarts = P.Compile { counter_spec with P.restarts } in
  List.iter
    (fun r -> compiled "sequential" (rpc socket (spec r)))
    [ 0; 1; 2; 0; 1; 2 ];
  let replies = Array.make 6 None in
  let threads =
    List.init 3 (fun i ->
        Thread.create
          (fun () ->
            for j = 0 to 1 do
              replies.((2 * i) + j) <- Some (rpc socket (spec (3 + i)))
            done)
          ())
  in
  List.iter Thread.join threads;
  Array.iter
    (function
      | Some r -> compiled "concurrent" r
      | None -> Alcotest.fail "a concurrent request got no reply")
    replies;
  (match rpc socket (P.Compile { counter_spec with P.source = "not ISP" }) with
  | P.Error_reply _ -> ()
  | _ -> Alcotest.fail "a broken source must be an Error_reply");
  compiled "after a failure" (rpc socket (spec 0));
  check_int "every request executed" 14 (stat socket "serve.executions");
  let traces =
    Sys.readdir trace_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".trace.json")
  in
  check_int "one trace per execution" 14 (List.length traces);
  let tids_of f =
    match
      Json.parse (String.concat "\n" (read_lines (Filename.concat trace_dir f)))
    with
    | Ok v -> (
      match Json.member "traceEvents" v with
      | Some (Json.Arr evs) ->
        List.filter_map
          (fun e ->
            match Json.member "tid" e with
            | Some (Json.Num t) -> Some t
            | _ -> None)
          evs
        |> List.sort_uniq compare
      | _ -> Alcotest.failf "%s: no traceEvents" f)
    | Error e -> Alcotest.failf "%s does not parse: %s" f e
  in
  let per_trace = List.map tids_of traces in
  check_bool "each execution runs on one domain" true
    (List.for_all (fun tids -> List.length tids = 1) per_trace);
  let tids = List.sort_uniq compare (List.concat per_trace) in
  check_bool
    (Printf.sprintf "traces carry at most 2 domain ids (got %d)" (List.length tids))
    true
    (tids <> [] && List.length tids <= 2)

(* --exec-domains must fit in the runtime's 128 domains: checked before
   the daemon binds its socket or starts a domain *)
let test_exec_domain_count () =
  let count = Sc_serve.Server.exec_domain_count in
  let ok what want got =
    match got with
    | Ok n -> check_int what want n
    | Error e -> Alcotest.failf "%s: unexpected error %s" what e
  in
  ok "an explicit count is kept" 2 (count (Some 2));
  ok "below 1 clamps to 1" 1 (count (Some 0));
  ok "the last domain that fits beside main" 127 (count (Some 127));
  (match count None with
  | Ok n -> check_bool "the default fits" true (n >= 1 && n <= 127)
  | Error e -> Alcotest.failf "default rejected: %s" e);
  let rejected what got =
    match got with
    | Error e -> check_bool (what ^ ": one line") false (String.contains e '\n')
    | Ok n -> Alcotest.failf "%s: accepted %d" what n
  in
  rejected "128 beside the main domain" (count (Some 128))

(* one request's --certify must not leak into a concurrent plain
   compile: run them together and check the snapshots disagree about
   certificates the way the flags do *)
let test_certify_isolation_concurrent () =
  with_server @@ fun socket ->
  let traffic_spec =
    match Sc_core.Designs.builtin "traffic" with
    | Some source ->
      { P.design = "traffic"; source; style = "gates"; restarts = 0
      ; certify = false
      }
    | None -> assert false
  in
  let certified_passes c =
    match Json.member "qor" c.P.snapshot with
    | Some qor -> (
      match Json.member "equiv.certified_passes" qor with
      | Some (Json.Num n) -> int_of_float n
      | _ -> 0)
    | None -> 0
  in
  let results = Array.make 2 None in
  let reqs =
    [| P.Compile { counter_spec with P.certify = true }
     ; P.Compile traffic_spec
    |]
  in
  let threads =
    List.init 2 (fun i ->
        Thread.create (fun () -> results.(i) <- Some (rpc socket reqs.(i))) ())
  in
  List.iter Thread.join threads;
  (match results.(0) with
  | Some (P.Compiled c) ->
    check_bool "certified compile proves passes" true (certified_passes c >= 1)
  | Some (P.Error_reply { stage; message }) ->
    Alcotest.failf "certified compile failed: %s: %s" stage message
  | _ -> Alcotest.fail "expected Compiled");
  match results.(1) with
  | Some (P.Compiled c) ->
    check_int "concurrent plain compile stays uncertified" 0
      (certified_passes c)
  | Some (P.Error_reply { stage; message }) ->
    Alcotest.failf "plain compile failed: %s: %s" stage message
  | _ -> Alcotest.fail "expected Compiled"

(* a modular (chip-block) source compiles through the daemon: the
   per-module pass rows ride the reply, the snapshot carries per-module
   QoR, and a warm repeat is all-hit including the module rows *)
let test_modular_via_daemon () =
  with_server @@ fun socket ->
  let spec =
    match Sc_core.Designs.builtin "system" with
    | Some source ->
      { P.design = "system"; source; style = "gates"; restarts = 0
      ; certify = false
      }
    | None -> assert false
  in
  (match rpc socket (P.Compile spec) with
  | P.Compiled c ->
    let passes = List.map fst c.P.passes in
    check_bool "per-module pass rows" true
      (List.mem "mixer:place" passes && List.mem "accum:place" passes
      && List.mem "assemble" passes);
    let snap = Json.to_string c.P.snapshot in
    let contains needle hay =
      let n = String.length needle and h = String.length hay in
      let rec go i =
        i + n <= h && (String.sub hay i n = needle || go (i + 1))
      in
      go 0
    in
    check_bool "per-module QoR in snapshot" true
      (contains "module.mixer.area" snap && contains "module.accum.area" snap)
  | P.Error_reply { stage; message } ->
    Alcotest.failf "modular compile failed: %s: %s" stage message
  | _ -> Alcotest.fail "expected Compiled");
  match rpc socket (P.Compile spec) with
  | P.Compiled c ->
    check_bool "warm modular request: all passes hit" true
      (c.P.passes <> []
      && List.for_all (fun (_, st) -> st = "hit (memory)") c.P.passes)
  | _ -> Alcotest.fail "expected Compiled"

(* --- one compile request: the daemon runs what scc compile runs --- *)

module C = Sc_core.Compiler

let shifter_lsl =
  "cell stage() { inst dff() at (0,0); inst inv() at (width(dff()),0); }\n\
   cell main() { for i = 0 to 3 { inst stage() at (i*width(stage()), 0); } }\n"

let qor_of_json j =
  match Sc_metrics.Metrics.of_json j with
  | Ok s -> s.Sc_metrics.Metrics.qor
  | Error e -> Alcotest.failf "snapshot: %s" e

(* a layout-language source sent as style "layout" compiles through the
   daemon, and its QoR is that of a single-shot [Compiler.run] *)
let test_layout_via_daemon () =
  let recorder = Sc_obs.Obs.Recorder.create () in
  Sc_obs.Obs.Recorder.enable recorder;
  let single =
    Sc_obs.Obs.with_recorder recorder (fun () ->
        C.run (C.request C.Layout shifter_lsl))
  in
  Sc_obs.Obs.Recorder.disable recorder;
  (match single.C.result with
  | Ok (_, None) -> ()
  | Ok (_, Some _) -> Alcotest.fail "a layout source has no circuit"
  | Error d -> Alcotest.fail (Sc_pipeline.Diag.to_string d));
  let expected =
    (Sc_metrics.Metrics.capture ~recorder ~design:"shifter" ()).qor
  in
  check_bool "single-shot QoR is measured" true
    (List.mem_assoc "layout.transistors" expected);
  with_server @@ fun socket ->
  let spec =
    { P.design = "shifter"; source = shifter_lsl; style = "layout"
    ; restarts = 0; certify = false
    }
  in
  match rpc socket (P.Compile spec) with
  | P.Compiled c ->
    check_int "no netlist" 0 c.P.gates;
    check_bool "daemon QoR = single-shot QoR" true
      (qor_of_json c.P.snapshot = expected)
  | P.Error_reply { stage; message } ->
    Alcotest.failf "layout compile failed: %s: %s" stage message
  | _ -> Alcotest.fail "expected Compiled"

(* each flag the client can misapply is refused with one message: the
   request's validation, which scc compile and scc client compile
   print, and the daemon's reply wherever the wire can carry the flag.
   The daemon refuses on the request's connection, so no refusal
   reaches an execution domain or counts in serve.executions. *)
let test_misapplied_flags () =
  let counter12 = Example_file.read "counter12.v" in
  let cases =
    [ ( { (C.request C.Verilog counter12) with style = Some C.Pla_control }
      , "--style does not apply to Verilog sources"
      , false )
    ; ( { (C.request C.Layout shifter_lsl) with style = Some C.Random_logic }
      , "--style does not apply to layout-language sources"
      , false )
    ; ( { (C.request C.Layout shifter_lsl) with restarts = 2 }
      , "--restarts does not apply to layout-language sources"
      , true )
    ; ( { (C.request C.Isp counter_spec.P.source) with
          style = Some C.Pla_control
        ; restarts = 2
        }
      , "--restarts does not apply to --style pla"
      , true )
    ]
  in
  let refused (d : Sc_pipeline.Diag.t) =
    (d.stage, Sc_pipeline.Diag.located d)
  in
  List.iter
    (fun (r, msg, _) ->
      (match C.validate r with
      | Error d ->
        Alcotest.(check (pair string string)) msg ("request", msg) (refused d)
      | Ok () -> Alcotest.failf "%s: not refused" msg);
      match (C.run r).C.result with
      | Error d ->
        Alcotest.(check (pair string string)) ("run: " ^ msg) ("request", msg)
          (refused d)
      | Ok _ -> Alcotest.failf "%s: compiled" msg)
    cases;
  with_server @@ fun socket ->
  List.iter
    (fun (r, msg, _) ->
      match rpc socket (P.Compile (P.spec_of_request ~design:"d" r)) with
      | P.Error_reply { stage; message } ->
        Alcotest.(check (pair string string)) ("daemon: " ^ msg)
          ("request", msg) (stage, message)
      | _ -> Alcotest.failf "daemon: %s: not refused" msg)
    (List.filter (fun (_, _, on_wire) -> on_wire) cases);
  check_int "no refusal executed" 0 (stat socket "serve.executions")

let suite =
  [ Alcotest.test_case "request codecs roundtrip" `Quick test_request_roundtrip
  ; Alcotest.test_case "response codecs roundtrip" `Quick
      test_response_roundtrip
  ; Alcotest.test_case "decode rejects garbage" `Quick
      test_decode_rejects_garbage
  ; Alcotest.test_case "frame roundtrip and clean EOF" `Quick
      test_frame_roundtrip
  ; Alcotest.test_case "truncated header rejected" `Quick
      test_frame_truncated_header
  ; Alcotest.test_case "truncated payload rejected" `Quick
      test_frame_truncated_payload
  ; Alcotest.test_case "oversized length rejected" `Quick test_frame_oversized
  ; Alcotest.test_case "two-client dedup" `Quick test_two_client_dedup
  ; Alcotest.test_case "verbs and structured errors" `Quick
      test_server_verbs_and_errors
  ; Alcotest.test_case "certified compile via daemon" `Quick
      test_certified_compile_via_daemon
  ; Alcotest.test_case "verilog style" `Quick test_verilog_style
  ; Alcotest.test_case "stats telemetry fields" `Quick test_stats_telemetry
  ; Alcotest.test_case "pre-telemetry stats decode" `Quick
      test_stats_decode_compat
  ; Alcotest.test_case "structured log and sampled traces" `Quick
      test_log_and_trace
  ; Alcotest.test_case "certify isolation under concurrency" `Quick
      test_certify_isolation_concurrent
  ; Alcotest.test_case "modular design via daemon" `Quick
      test_modular_via_daemon
  ; Alcotest.test_case "executions reuse the daemon's domains" `Quick
      test_executions_reuse_domains
  ; Alcotest.test_case "--exec-domains bounded by the runtime" `Quick
      test_exec_domain_count
  ; Alcotest.test_case "layout-language source via daemon" `Quick
      test_layout_via_daemon
  ; Alcotest.test_case "misapplied flags: one message" `Quick
      test_misapplied_flags
  ]
