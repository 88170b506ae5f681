(* lib/obs: spans, counters, the stage table and Chrome trace export.
   Each test records into a fresh Recorder bound around its body and
   reads that recorder back.  Recorder isolation and per-thread binding
   are covered at the bottom. *)

module Obs = Sc_obs.Obs
module R = Obs.Recorder
module Json = Sc_obs.Json

(* the Chrome trace [R.write_trace] writes for [r] *)
let chrome_trace r =
  let path = Filename.temp_file "scc-trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      R.write_trace r path;
      In_channel.with_open_bin path In_channel.input_all)

(* run [f r] with a fresh enabled recorder [r] bound *)
let with_recorder f =
  let r = R.create () in
  R.enable r;
  Obs.with_recorder r (fun () -> f r)

let test_disabled_noop () =
  let work () =
    let v = Obs.span "stage" (fun () -> 17) in
    Obs.count "gates" 5;
    Obs.gauge "area" 100;
    v
  in
  Alcotest.(check int) "no recorder: span passes the result through" 17
    (work ());
  Alcotest.(check bool) "no recorder: not enabled" false (Obs.enabled ());
  let r = R.create () in
  Alcotest.(check int) "disabled recorder: result passes through" 17
    (Obs.with_recorder r work);
  Alcotest.(check int) "no events recorded" 0 (List.length (R.events r));
  Alcotest.(check int) "no counters recorded" 0 (List.length (R.totals r))

let test_span_nesting () =
  with_recorder @@ fun rc ->
  let r =
    Obs.span "outer" (fun () ->
        Obs.span "inner" (fun () -> ignore (Sys.opaque_identity 1));
        Obs.span "inner" (fun () -> ());
        "done")
  in
  Alcotest.(check string) "result" "done" r;
  let evs = R.events rc in
  Alcotest.(check int) "three events" 3 (List.length evs);
  let outer = List.find (fun (e : Obs.event) -> e.name = "outer") evs in
  let inners = List.filter (fun (e : Obs.event) -> e.name = "inner") evs in
  Alcotest.(check string) "outer path" "outer" outer.path;
  Alcotest.(check int) "outer depth" 0 outer.depth;
  List.iter
    (fun (e : Obs.event) ->
      Alcotest.(check string) "inner path" "outer.inner" e.path;
      Alcotest.(check int) "inner depth" 1 e.depth;
      Alcotest.(check bool) "child within parent" true
        (e.start_us >= outer.start_us
        && e.start_us +. e.dur_us <= outer.start_us +. outer.dur_us +. 1.0))
    inners;
  let children = List.fold_left (fun a (e : Obs.event) -> a +. e.dur_us) 0.0 inners in
  Alcotest.(check bool) "self excludes children" true
    (outer.self_us <= outer.dur_us -. children +. 1.0)

let test_counter_aggregation () =
  with_recorder @@ fun r ->
  Obs.span "a" (fun () ->
      Obs.count "gates" 3;
      Obs.span "b" (fun () -> Obs.count "gates" 4);
      Obs.count "gates" 5);
  Obs.gauge "nodes" 7;
  Obs.gauge "nodes" 9;
  let ev name = List.find (fun (e : Obs.event) -> e.name = name) (R.events r) in
  Alcotest.(check (option int)) "innermost span owns its counts" (Some 4)
    (List.assoc_opt "gates" (ev "b").counters);
  Alcotest.(check (option int)) "outer span keeps only its own" (Some 8)
    (List.assoc_opt "gates" (ev "a").counters);
  Alcotest.(check (option int)) "global counter sums everything" (Some 12)
    (List.assoc_opt "gates" (R.totals r));
  Alcotest.(check (option int)) "gauge: last write wins" (Some 9)
    (List.assoc_opt "nodes" (R.totals r))

let test_exception_safety () =
  with_recorder @@ fun r ->
  (try Obs.span "boom" (fun () -> failwith "expected") with Failure _ -> ());
  let evs = R.events r in
  Alcotest.(check int) "event recorded despite the raise" 1 (List.length evs);
  Alcotest.(check string) "named" "boom" (List.hd evs).Obs.path;
  (* the stack unwound: a new span is top-level again *)
  Obs.span "after" (fun () -> ());
  let after = List.find (fun (e : Obs.event) -> e.name = "after") (R.events r) in
  Alcotest.(check int) "stack unwound" 0 after.Obs.depth

let test_stage_table () =
  with_recorder @@ fun r ->
  Obs.span "x" (fun () -> Obs.count "n" 1);
  Obs.span "x" (fun () -> Obs.count "n" 2);
  Obs.span "y" (fun () -> ());
  let rows = R.stage_table r in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  let x = List.find (fun (r : Obs.row) -> r.rpath = "x") rows in
  Alcotest.(check int) "x called twice" 2 x.calls;
  Alcotest.(check (option int)) "x counters summed" (Some 3)
    (List.assoc_opt "n" x.rcounters);
  (* ordering: first start first *)
  Alcotest.(check string) "x first" "x" (List.hd rows).Obs.rpath

let test_trace_roundtrip () =
  with_recorder @@ fun r ->
  Obs.span "parse" (fun () -> ());
  Obs.span "place" (fun () ->
      Obs.span "route" (fun () -> Obs.count "route.tracks" 12));
  let text = chrome_trace r in
  match Json.parse text with
  | Error e -> Alcotest.failf "trace does not parse back: %s" e
  | Ok json -> (
    match Json.member "traceEvents" json with
    | Some (Json.Arr evs) ->
      let spans =
        List.filter
          (fun e -> Json.member "ph" e = Some (Json.Str "X"))
          evs
      in
      Alcotest.(check int) "one X event per span" 3 (List.length spans);
      List.iter
        (fun e ->
          (match Json.member "ts" e with
          | Some (Json.Num ts) ->
            Alcotest.(check bool) "ts non-negative" true (ts >= 0.0)
          | _ -> Alcotest.fail "missing ts");
          match Json.member "dur" e with
          | Some (Json.Num d) ->
            Alcotest.(check bool) "dur non-negative" true (d >= 0.0)
          | _ -> Alcotest.fail "missing dur")
        spans;
      let nested =
        List.find_opt
          (fun e -> Json.member "name" e = Some (Json.Str "place.route"))
          spans
      in
      Alcotest.(check bool) "nested span keeps its path" true (nested <> None);
      let counters =
        List.filter
          (fun e -> Json.member "ph" e = Some (Json.Str "C"))
          evs
      in
      Alcotest.(check bool) "counter track present" true
        (List.exists
           (fun e -> Json.member "name" e = Some (Json.Str "route.tracks"))
           counters)
    | _ -> Alcotest.fail "traceEvents missing or not an array")

let test_json_parser () =
  let roundtrip s =
    match Json.parse s with
    | Error e -> Alcotest.failf "parse %s: %s" s e
    | Ok v -> (
      match Json.parse (Json.to_string v) with
      | Error e -> Alcotest.failf "reparse of %s: %s" (Json.to_string v) e
      | Ok w -> Alcotest.(check bool) ("roundtrip " ^ s) true (v = w))
  in
  roundtrip "null";
  roundtrip "[1, -2.5, 3e4, 0.125]";
  roundtrip {|{"a": [true, false, null], "b": {"c": "d"}}|};
  roundtrip {|"line\nbreak\ttab \"quoted\" back\\slash"|};
  roundtrip {|"unicode é 世 😀"|};
  (match Json.parse "[1, 2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unterminated array accepted");
  (match Json.parse "{\"a\" 1}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing colon accepted");
  (match Json.parse "[] trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  match Json.parse {|{"k": 1}|} with
  | Ok v ->
    Alcotest.(check bool) "member" true
      (Json.member "k" v = Some (Json.Num 1.0))
  | Error e -> Alcotest.fail e

(* the whole point: a real compilation, observed end to end *)
let test_compiler_stages () =
  with_recorder @@ fun r ->
  (match Sc_core.Compiler.compile_behavior Sc_core.Designs.counter_src with
  | Ok _ -> ()
  | Error d -> Alcotest.fail (Sc_pipeline.Diag.to_string d));
  let rows = R.stage_table r in
  List.iter
    (fun stage ->
      Alcotest.(check bool) ("stage " ^ stage ^ " recorded") true
        (List.exists (fun (r : Obs.row) -> r.rpath = stage) rows))
    [ "parse"; "compile"; "optimize"; "place"; "route"; "drc"; "emit" ];
  (match Json.parse (chrome_trace r) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "compiler trace does not parse: %s" e);
  let totals = R.totals r in
  List.iter
    (fun key ->
      Alcotest.(check bool) ("counter " ^ key) true
        (List.assoc_opt key totals <> None))
    [ "gates"; "transistors"; "route.tracks"; "cif.bytes"; "drc.violations" ]

(* route's time splits into pin assignment and the channel router, so
   the stage has no unexplained self time *)
let test_route_subspans () =
  with_recorder @@ fun r ->
  (match Sc_core.Compiler.compile_behavior Sc_core.Designs.counter_src with
  | Ok _ -> ()
  | Error d -> Alcotest.fail (Sc_pipeline.Diag.to_string d));
  let rows = R.stage_table r in
  List.iter
    (fun path ->
      match List.find_opt (fun (row : Obs.row) -> row.rpath = path) rows with
      | Some row -> Alcotest.(check int) (path ^ " is a child of route") 1 row.rdepth
      | None -> Alcotest.failf "no %s span" path)
    [ "route.pins"; "route.channel" ];
  let pins = List.find (fun (row : Obs.row) -> row.rpath = "route.pins") rows in
  Alcotest.(check int) "pins assigned once per compile" 1 pins.calls

(* --- recorder instances: isolation, per-thread binding --- *)

let test_recorder_isolation () =
  let a = Obs.Recorder.create () in
  let b = Obs.Recorder.create () in
  Obs.Recorder.enable a;
  Obs.Recorder.enable b;
  Obs.with_recorder a (fun () ->
      Obs.span "work" (fun () -> Obs.count "gates" 3));
  Obs.with_recorder b (fun () ->
      Obs.span "work" (fun () -> Obs.count "gates" 5);
      Obs.span "extra" (fun () -> ()));
  Alcotest.(check int) "a has one event" 1
    (List.length (Obs.Recorder.events a));
  Alcotest.(check int) "b has two events" 2
    (List.length (Obs.Recorder.events b));
  Alcotest.(check (option int)) "a's counter" (Some 3)
    (List.assoc_opt "gates" (Obs.Recorder.totals a));
  Alcotest.(check (option int)) "b's counter" (Some 5)
    (List.assoc_opt "gates" (Obs.Recorder.totals b));
  (* outside both bindings nothing records *)
  Obs.span "work" (fun () -> Obs.count "gates" 7);
  Alcotest.(check int) "a unchanged" 1 (List.length (Obs.Recorder.events a));
  Alcotest.(check int) "b unchanged" 2 (List.length (Obs.Recorder.events b))

let test_ambient_dispatch () =
  (* inside with_recorder the instrumentation records into that
     instance; the binding is scoped to the installing thread, so
     concurrent threads each see their own recorder *)
  let n = 4 in
  let recorders = Array.init n (fun _ -> Obs.Recorder.create ()) in
  Array.iter Obs.Recorder.enable recorders;
  let threads =
    Array.to_list
      (Array.mapi
         (fun i r ->
           Thread.create
             (fun () ->
               Obs.with_recorder r (fun () ->
                   Alcotest.(check bool) "my recorder is in scope" true
                     (Obs.enabled ());
                   for _ = 1 to i + 1 do
                     Obs.span "tick" (fun () -> Obs.count "n" 1)
                   done))
             ())
         recorders)
  in
  List.iter Thread.join threads;
  Array.iteri
    (fun i r ->
      Alcotest.(check int)
        (Printf.sprintf "recorder %d event count" i)
        (i + 1)
        (List.length (Obs.Recorder.events r));
      Alcotest.(check (option int))
        (Printf.sprintf "recorder %d counter" i)
        (Some (i + 1))
        (List.assoc_opt "n" (Obs.Recorder.totals r)))
    recorders;
  (* outside any with_recorder, nothing is in scope *)
  Alcotest.(check bool) "no recorder outside the bindings" false
    (Obs.enabled ())

let suite =
  [ Alcotest.test_case "disabled mode is a no-op" `Quick test_disabled_noop
  ; Alcotest.test_case "span nesting" `Quick test_span_nesting
  ; Alcotest.test_case "counter aggregation" `Quick test_counter_aggregation
  ; Alcotest.test_case "exception safety" `Quick test_exception_safety
  ; Alcotest.test_case "stage table" `Quick test_stage_table
  ; Alcotest.test_case "chrome trace roundtrip" `Quick test_trace_roundtrip
  ; Alcotest.test_case "json parser" `Quick test_json_parser
  ; Alcotest.test_case "compiler stages observed" `Quick test_compiler_stages
  ; Alcotest.test_case "recorder isolation" `Quick test_recorder_isolation
  ; Alcotest.test_case "ambient dispatch across threads" `Quick
      test_ambient_dispatch
  ; Alcotest.test_case "route records pins and channel sub-spans" `Quick
      test_route_subspans
  ]
