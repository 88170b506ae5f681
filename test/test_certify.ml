(* the certified pipeline: with certification on, every
   netlist-to-netlist pass proves its output equivalent to its own input
   before the pipeline continues; a miscompile is refused as a Diag
   naming the pass; certificates are cached like stage artifacts, so a
   certified warm rebuild is all hits with byte-identical QoR. *)

module P = Sc_pipeline.Pipeline
module Diag = Sc_pipeline.Diag
module Obs = Sc_obs.Obs
module M = Sc_metrics.Metrics
module C = Sc_core.Compiler

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_certified_pipeline f =
  P.disable_cache ();
  P.clear_caches ();
  Fun.protect
    ~finally:(fun () ->
      P.disable_cache ();
      P.clear_caches ())
    (fun () -> P.with_certify true f)

let failed_optimize log =
  List.exists
    (fun (n, st) -> n = "optimize" && P.status_to_string st = "failed")
    log

(* compile under the Obs recorder and return both the result and the
   captured snapshot *)
let capture ?style ?inject_fault src =
  let recorder = Obs.Recorder.create () in
  Obs.Recorder.enable recorder;
  let r =
    Obs.with_recorder recorder (fun () ->
        C.compile_behavior ?style ?inject_fault src)
  in
  (r, M.capture ~recorder ~design:"certify" ())

let qor key s = List.assoc_opt key s.M.qor

let test_clean_compile_certifies () =
  with_certified_pipeline @@ fun () ->
  let r, s = capture Sc_core.Designs.counter_src in
  (match r with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "certified compile failed: %s" (Diag.to_string d));
  check_bool "a pass was certified" true
    (match qor "equiv.certified_passes" s with Some n -> n >= 1. | None -> false);
  check_bool "the certificate covered output cones" true
    (match qor "equiv.certificate.cones" s with Some n -> n >= 1. | None -> false);
  check_bool "certificate wall-clock is runtime, not QoR" true
    (M.is_runtime_key "equiv.certificate_us"
    && List.assoc_opt "equiv.certificate_us" s.M.runtime <> None)

let test_pla_minimizer_certifies () =
  with_certified_pipeline @@ fun () ->
  let r, s = capture ~style:C.Pla_control Sc_core.Designs.traffic_src in
  (match r with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "certified pla compile failed: %s" (Diag.to_string d));
  check_bool "the minimized cover was certified" true
    (match qor "equiv.certified_passes" s with Some n -> n >= 1. | None -> false)

(* fault injection: some mutations are invisible (dead or masked cones),
   so scan for an index the certifier refuses, then show the same
   miscompile sails through when certification is off *)
let test_injected_miscompile_refused () =
  with_certified_pipeline @@ fun () ->
  let src = Sc_core.Designs.counter_src in
  let rec hunt i =
    if i > 20 then Alcotest.fail "no inject index was refused in 0..20"
    else
      match P.with_log (fun () -> C.compile_behavior ~inject_fault:i src) with
      | Error d, log ->
        Alcotest.(check string) "the refusing pass is named" "optimize"
          d.Diag.stage;
        check_bool "the diag says the certificate was refused" true
          (let msg = Diag.to_string d in
           let sub = "translation certificate refused" in
           let n = String.length sub and m = String.length msg in
           let rec scan j =
             j + n <= m && (String.sub msg j n = sub || scan (j + 1))
           in
           scan 0);
        (i, log)
      | Ok _, _ -> hunt (i + 1)
  in
  let refused, log = hunt 0 in
  (* the run log shows the pass failing, not running *)
  check_bool "cert failure journaled as failed" true (failed_optimize log);
  (* certification off: the same miscompile passes silently — that gap
     is exactly what --certify closes *)
  match
    P.with_certify false (fun () ->
        C.compile_behavior ~inject_fault:refused src)
  with
  | Ok _ -> ()
  | Error d ->
    Alcotest.failf "uncertified miscompile should compile: %s"
      (Diag.to_string d)

let test_certified_warm_rebuild () =
  with_certified_pipeline @@ fun () ->
  P.enable_cache ();
  let src = Sc_core.Designs.counter_src in
  let _, cold = capture src in
  let (r, warm), log = P.with_log (fun () -> capture src) in
  (match r with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "warm certified compile failed: %s" (Diag.to_string d));
  check_bool "warm run is all hits" true
    (log <> []
    && List.for_all
         (fun (_, st) -> P.status_to_string st = "hit (memory)")
         log);
  Alcotest.(check string) "warm QoR bytes = cold QoR bytes (certificates included)"
    (M.qor_string cold) (M.qor_string warm);
  check_bool "warm run still reports the certificate" true
    (match qor "equiv.certified_passes" warm with
    | Some n -> n >= 1.
    | None -> false);
  (* the certificate store shows up next to its pass and took the hit *)
  match List.assoc_opt "optimize.cert" (P.cache_stats ()) with
  | None -> Alcotest.fail "optimize.cert store expected"
  | Some s ->
    check_int "one certificate stored" 1 s.Sc_cache.Cache.entries;
    check_bool "warm certificate was a hit" true (s.Sc_cache.Cache.hits >= 1)

(* a refused artifact must never be cached: after a refusal, the same
   injected compile fails again (executes again), and nothing was stored
   for it *)
let test_refused_artifact_uncached () =
  with_certified_pipeline @@ fun () ->
  P.enable_cache ();
  let src = Sc_core.Designs.counter_src in
  let refused =
    let rec hunt i =
      if i > 20 then Alcotest.fail "no inject index was refused in 0..20"
      else
        match C.compile_behavior ~inject_fault:i src with
        | Error _ -> i
        | Ok _ -> hunt (i + 1)
    in
    hunt 0
  in
  match P.with_log (fun () -> C.compile_behavior ~inject_fault:refused src) with
  | Error d, log ->
    Alcotest.(check string) "refused again" "optimize" d.Diag.stage;
    check_bool "the second refusal executed optimize (nothing was cached)"
      true (failed_optimize log)
  | Ok _, _ -> Alcotest.fail "expected the miscompile to be refused again"

let suite =
  [ Alcotest.test_case "clean compile certifies" `Quick
      test_clean_compile_certifies
  ; Alcotest.test_case "pla minimizer certifies" `Quick
      test_pla_minimizer_certifies
  ; Alcotest.test_case "injected miscompile refused" `Quick
      test_injected_miscompile_refused
  ; Alcotest.test_case "certified warm rebuild" `Quick
      test_certified_warm_rebuild
  ; Alcotest.test_case "refused artifact uncached" `Quick
      test_refused_artifact_uncached
  ]
