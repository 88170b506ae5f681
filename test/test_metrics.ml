(* lib/metrics: QoR snapshots, JSON roundtrip, diff classification and
   the quality gate.  Every test that captures records into a fresh
   recorder of its own. *)

module Obs = Sc_obs.Obs
module M = Sc_metrics.Metrics

let with_recorder f =
  let r = Obs.Recorder.create () in
  Obs.Recorder.enable r;
  Obs.with_recorder r (fun () -> f r)

(* the format version a capture stamps *)
let version = (M.capture ~recorder:(Obs.Recorder.create ()) ~design:"" ()).M.version

let snap ?(design = "t") ?(qor = []) ?(runtime = []) () =
  { M.version; design; qor; runtime }

(* snapshots through a file, the way [scc report] and [scc diff] read
   them *)
let via_file f =
  let path = Filename.temp_file "scc-metrics" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let write_read s =
  via_file (fun path ->
      M.write path s;
      M.read path)

let written s =
  via_file (fun path ->
      M.write path s;
      In_channel.with_open_bin path In_channel.input_all)

let read_text text =
  via_file (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      M.read path)

let test_runtime_key () =
  List.iter
    (fun (k, expect) ->
      Alcotest.(check bool) k expect (M.is_runtime_key k))
    [ ("gates", false)
    ; ("area", false)
    ; ("place.hpwl", false)
    ; ("cif.rects.NM", false)
    ; ("stage.compile.total_us", true)
    ; ("cache.stdcell.hit", true)
    ; ("pool.width", true)
    ; ("pool.d0.tasks", true)
    ; ("equiv.cone.calls", true)
    ]

let test_roundtrip () =
  let s =
    snap ~design:"pdp8"
      ~qor:[ ("area", 3458280.); ("drc.violations", 0.); ("gates", 685.) ]
      ~runtime:[ ("pool.width", 4.); ("stage.drc.total_us", 365561.) ]
      ()
  in
  (match write_read s with
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e
  | Ok s' ->
    Alcotest.(check bool) "snapshot survives JSON roundtrip" true (s = s'));
  Alcotest.(check string) "serialization is deterministic" (written s)
    (written s);
  (match read_text "{\"schema\":\"nope\",\"version\":1}" with
  | Ok _ -> Alcotest.fail "wrong schema accepted"
  | Error _ -> ());
  match write_read { s with version = version + 1 } with
  | Ok _ -> Alcotest.fail "future version accepted"
  | Error _ -> ()

let test_capture_sections () =
  let s =
    with_recorder @@ fun r ->
    Obs.span "stage_a" (fun () -> Obs.count "gates" 42);
    Obs.gauge "area" 1000;
    Obs.count "cache.unit.hit" 3;
    M.capture ~recorder:r ~design:"d" ()
  in
  let has section k = List.mem_assoc k section in
  Alcotest.(check bool) "gates is QoR" true (has s.M.qor "gates");
  Alcotest.(check bool) "area is QoR" true (has s.M.qor "area");
  Alcotest.(check bool) "cache counter is runtime" true
    (has s.M.runtime "cache.unit.hit");
  Alcotest.(check bool) "stage time is runtime" true
    (has s.M.runtime "stage.stage_a.total_us");
  Alcotest.(check bool) "stage calls is runtime" true
    (has s.M.runtime "stage.stage_a.calls");
  Alcotest.(check bool) "no runtime key leaks into QoR" true
    (List.for_all (fun (k, _) -> not (M.is_runtime_key k)) s.M.qor);
  Alcotest.(check (option (float 0.))) "gauge value" (Some 1000.)
    (List.assoc_opt "area" s.M.qor);
  (* times are whole microseconds: integral floats, exact JSON *)
  List.iter
    (fun (k, v) ->
      Alcotest.(check bool) (k ^ " integral") true (Float.is_integer v))
    (s.M.qor @ s.M.runtime)

let verdict_of ?thresholds ?(runtime = false) base cur key =
  let side v =
    if runtime then snap ~runtime:[ (key, v) ] () else snap ~qor:[ (key, v) ] ()
  in
  let r = M.diff ?thresholds (side base) (side cur) in
  match r.M.deltas with
  | [ d ] -> d.M.verdict
  | ds -> Alcotest.failf "expected one delta, got %d" (List.length ds)

let test_diff_classification () =
  let check what expect got =
    Alcotest.(check bool) what true (expect = got)
  in
  (* lower-better (the default): bigger is worse *)
  check "area grows -> regressed" M.Regressed (verdict_of 100. 120. "area");
  check "area shrinks -> improved" M.Improved (verdict_of 120. 100. "area");
  check "area equal -> neutral" M.Neutral (verdict_of 100. 100. "area");
  check "one extra DRC violation regresses" M.Regressed
    (verdict_of 0. 1. "drc.violations");
  (* higher-better *)
  check "more proved cones -> improved" M.Improved
    (verdict_of 10. 12. "equiv.certificate.cones");
  check "fewer proved cones -> regressed" M.Regressed
    (verdict_of 12. 10. "equiv.certificate.cones");
  (* added / removed metrics never gate *)
  let r =
    M.diff (snap ~qor:[ ("old", 1.) ] ()) (snap ~qor:[ ("new", 2.) ] ())
  in
  List.iter
    (fun (d : M.delta) ->
      check (d.M.key ^ " added/removed is neutral") M.Neutral d.M.verdict)
    r.M.deltas;
  (* runtime metrics classify but do not gate by default *)
  let rt =
    M.diff
      (snap ~runtime:[ ("stage.drc.total_us", 1000000.) ] ())
      (snap ~runtime:[ ("stage.drc.total_us", 2000000.) ] ())
  in
  Alcotest.(check bool) "gate ignores runtime by default" false (M.gate rt);
  Alcotest.(check bool) "gate ~runtime:true fires" true
    (M.gate ~runtime:true rt)

let test_thresholds () =
  let ts =
    match
      M.thresholds_of_string
        {|{ "area": {"rel": 0.10},
            "stage.*": {"rel": 0.50, "abs": 1000},
            "stage.drc.total_us": {"abs": 5} }|}
    with
    | Ok ts -> ts
    | Error e -> Alcotest.failf "thresholds parse failed: %s" e
  in
  let check what expect got = Alcotest.(check bool) what true (expect = got) in
  let verdict ?runtime = verdict_of ~thresholds:ts ?runtime in
  (* 40% growth: within the pattern's rel 0.50, beyond the default 0.25 *)
  check "prefix pattern rel" M.Neutral
    (verdict ~runtime:true 100000. 140000. "stage.place.self_us");
  (* from zero only abs decides: 1100 is past the pattern's 1000, inside
     the default 20000 *)
  check "prefix pattern abs" M.Regressed
    (verdict ~runtime:true 0. 1100. "stage.place.self_us");
  check "prefix pattern abs, within" M.Neutral
    (verdict ~runtime:true 0. 900. "stage.place.self_us");
  check "exact beats prefix" M.Regressed
    (verdict ~runtime:true 0. 6. "stage.drc.total_us");
  check "unmatched QoR key is exact" M.Regressed (verdict 100. 101. "gates");
  (* a within-threshold delta is neutral, outside regresses *)
  let b = snap ~qor:[ ("area", 100.) ] () in
  let within = M.diff ~thresholds:ts b (snap ~qor:[ ("area", 109.) ] ()) in
  let outside = M.diff ~thresholds:ts b (snap ~qor:[ ("area", 120.) ] ()) in
  (match within.M.deltas with
  | [ d ] ->
    Alcotest.(check bool) "9% growth within 10% rel" true
      (d.M.verdict = M.Neutral)
  | _ -> Alcotest.fail "one delta expected");
  (match outside.M.deltas with
  | [ d ] ->
    Alcotest.(check bool) "20% growth regresses" true
      (d.M.verdict = M.Regressed)
  | _ -> Alcotest.fail "one delta expected");
  match M.thresholds_of_string "[1,2]" with
  | Ok _ -> Alcotest.fail "non-object thresholds accepted"
  | Error _ -> ()

let capture_counter () =
  with_recorder @@ fun r ->
  (match
     Sc_core.Compiler.compile_behavior ~restarts:3 Sc_core.Designs.counter_src
   with
  | Ok _ -> ()
  | Error d ->
    Alcotest.failf "counter compile failed: %s" (Sc_pipeline.Diag.to_string d));
  M.capture ~recorder:r ~design:"counter" ()

let test_qor_run_identity () =
  let s1 = capture_counter () in
  let s2 = capture_counter () in
  Alcotest.(check string) "QoR bytes identical in two runs"
    (M.qor_string s1) (M.qor_string s2);
  Alcotest.(check bool) "snapshot is non-trivial" true
    (List.length s1.M.qor > 5)

(* the daemon sends a snapshot as JSON and the client renders it: the
   table and the diff report of the decoded snapshot are the ones of
   the captured snapshot *)
let test_render_after_json () =
  let s = capture_counter () in
  let wire s =
    match M.of_json (M.to_json s) with
    | Ok s -> s
    | Error e -> Alcotest.failf "snapshot does not decode: %s" e
  in
  let show pp v = Format.asprintf "%a" pp v in
  Alcotest.(check string) "pp_snapshot" (show M.pp_snapshot s)
    (show M.pp_snapshot (wire s));
  let base =
    { s with
      qor = List.mapi (fun i (k, v) -> (k, if i mod 2 = 0 then v +. 1. else v)) s.qor
    }
  in
  Alcotest.(check string) "pp_report of diff"
    (show M.pp_report (M.diff base s))
    (show M.pp_report (M.diff (wire base) (wire s)))

let suite =
  [ Alcotest.test_case "runtime/QoR key split" `Quick test_runtime_key
  ; Alcotest.test_case "JSON roundtrip" `Quick test_roundtrip
  ; Alcotest.test_case "capture sections" `Quick test_capture_sections
  ; Alcotest.test_case "diff classification" `Quick test_diff_classification
  ; Alcotest.test_case "thresholds" `Quick test_thresholds
  ; Alcotest.test_case "QoR identical across runs" `Quick
      test_qor_run_identity
  ; Alcotest.test_case "rendering after a JSON roundtrip" `Quick
      test_render_after_json
  ]
