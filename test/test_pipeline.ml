(* lib/pipeline: staged keys, the pass manager's cache/error/log
   contracts, and the incremental-invalidation matrix over the real
   compiler.  The pipeline's stores, run log and the Obs recorder are
   all process-global, so every test resets what it touches on the way
   out. *)

module P = Sc_pipeline.Pipeline
module Diag = Sc_pipeline.Diag
module Obs = Sc_obs.Obs
module M = Sc_metrics.Metrics
module C = Sc_core.Compiler

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_clean_pipeline f =
  P.disable_cache ();
  P.clear_caches ();
  Fun.protect
    ~finally:(fun () ->
      P.disable_cache ();
      P.clear_caches ())
    f

let statuses log = List.map (fun (n, s) -> (n, P.status_to_string s)) log

let with_recorder f =
  let r = Obs.Recorder.create () in
  Obs.Recorder.enable r;
  Obs.with_recorder r (fun () -> f r)

(* --- staged values --- *)

let test_staged_keys () =
  let a = P.source "module x;" in
  let a' = P.source "module x;" in
  let b = P.source "module y;" in
  Alcotest.(check string) "same source, same key" (P.key a) (P.key a');
  check_bool "different source, different key" true (P.key a <> P.key b);
  let r3 = P.inject ~tag:"restarts" ~repr:"3" 3 in
  let r5 = P.inject ~tag:"restarts" ~repr:"5" 5 in
  check_bool "inject repr reaches the key" true (P.key r3 <> P.key r5);
  check_int "inject carries the value" 3 (P.value r3);
  let m = P.map String.length a in
  Alcotest.(check string) "map keeps the key" (P.key a) (P.key m);
  check_int "map applies" 9 (P.value m)

(* --- pass execution, caching, errors --- *)

let test_pass_cache_and_log () =
  with_clean_pipeline @@ fun () ->
  let runs = ref 0 in
  let double =
    P.register ~name:"unit_double" (fun n ->
        incr runs;
        Ok (n * 2))
  in
  let input = P.inject ~tag:"n" ~repr:"21" 21 in
  (* disabled: every run executes *)
  let (), log =
    P.with_log (fun () ->
        (match P.run double input with
        | Ok out -> check_int "computes" 42 (P.value out)
        | Error d -> Alcotest.fail (Diag.to_string d));
        ignore (P.run double input))
  in
  check_int "no caching while disabled" 2 !runs;
  Alcotest.(check (list (pair string string)))
    "log records both executions"
    [ ("unit_double", "ran"); ("unit_double", "ran") ]
    (statuses log);
  (* enabled: miss then hit, and the hit returns the same key *)
  P.enable_cache ();
  let key () =
    match P.run double input with
    | Ok out -> P.key out
    | Error d -> Alcotest.fail (Diag.to_string d)
  in
  let (k1, k2), log =
    P.with_log (fun () ->
        let k1 = key () in
        (k1, key ()))
  in
  check_int "second run is a hit" 3 !runs;
  Alcotest.(check string) "hit reproduces the key" k1 k2;
  Alcotest.(check (list (pair string string)))
    "log shows miss then hit"
    [ ("unit_double", "ran"); ("unit_double", "hit (memory)") ]
    (statuses log);
  (* params split the key space *)
  (match P.run ~param:"mode=a" double input with
  | Ok _ -> ()
  | Error d -> Alcotest.fail (Diag.to_string d));
  check_int "a new param is a miss" 4 !runs;
  (* version bumps invalidate *)
  let double_v2 =
    P.register ~version:2 ~name:"unit_double" (fun n ->
        incr runs;
        Ok (n * 2))
  in
  (match P.run double_v2 input with
  | Ok _ -> ()
  | Error d -> Alcotest.fail (Diag.to_string d));
  check_int "a version bump is a miss" 5 !runs

let test_errors_are_values_and_uncached () =
  with_clean_pipeline @@ fun () ->
  P.enable_cache ();
  let attempts = ref 0 in
  let boom =
    P.register ~name:"unit_boom" (fun () ->
        incr attempts;
        if !attempts = 1 then Diag.fail ~stage:"unit_boom" "raised"
        else if !attempts = 2 then failwith "stray"
        else Ok "recovered")
  in
  let input = P.inject ~tag:"u" ~repr:"()" () in
  let (), log =
    P.with_log @@ fun () ->
    (match P.run boom input with
    | Error d ->
      Alcotest.(check string) "Diag.fail caught at the boundary"
        "unit_boom: raised" (Diag.to_string d)
    | Ok _ -> Alcotest.fail "expected a diag");
    (match P.run boom input with
    | Error d ->
      Alcotest.(check string) "stray exception mapped to the stage"
        "unit_boom" d.Diag.stage
    | Ok _ -> Alcotest.fail "expected a diag");
    (* the two failures stored nothing: the third attempt actually runs *)
    match P.run boom input with
    | Ok out ->
      Alcotest.(check string) "third attempt runs" "recovered" (P.value out)
    | Error d -> Alcotest.fail (Diag.to_string d)
  in
  check_int "every attempt executed" 3 !attempts;
  (match List.assoc_opt "unit_boom" (P.cache_stats ()) with
  | None -> Alcotest.fail "store expected"
  | Some s ->
    check_int "only the success is stored" 1 s.Sc_cache.Cache.entries);
  Alcotest.(check (list (pair string string)))
    "failures logged as failed"
    [ ("unit_boom", "failed"); ("unit_boom", "failed"); ("unit_boom", "ran") ]
    (statuses log)

(* --- the incremental matrix over the real compiler --- *)

let behavior_stages =
  [ "parse"; "compile"; "optimize"; "place"; "route"; "drc"; "emit"; "measure" ]

let compile ?restarts src =
  match P.with_log (fun () -> C.compile_behavior ?restarts src) with
  | Ok _, log -> statuses log
  | Error d, _ -> Alcotest.failf "compile failed: %s" (Diag.to_string d)

let all st = List.map (fun n -> (n, st)) behavior_stages

let test_incremental_invalidation () =
  with_clean_pipeline @@ fun () ->
  P.enable_cache ();
  let src = Sc_core.Designs.counter_src in
  Alcotest.(check (list (pair string string)))
    "cold compile runs every stage" (all "ran")
    (compile ~restarts:2 src);
  Alcotest.(check (list (pair string string)))
    "identical input hits every stage"
    (all "hit (memory)")
    (compile ~restarts:2 src);
  Alcotest.(check (list (pair string string)))
    "a restarts change reruns only place onward"
    [ ("parse", "hit (memory)")
    ; ("compile", "hit (memory)")
    ; ("optimize", "hit (memory)")
    ; ("place", "ran")
    ; ("route", "ran")
    ; ("drc", "ran")
    ; ("emit", "ran")
    ; ("measure", "ran")
    ]
    (compile ~restarts:5 src);
  Alcotest.(check (list (pair string string)))
    "a source edit reruns every stage" (all "ran")
    (compile ~restarts:2 (src ^ "\n"));
  (* a failing source fails at parse both times: errors are not cached *)
  let fail_log () =
    match P.with_log (fun () -> C.compile_behavior "definitely not ISP") with
    | Ok _, _ -> Alcotest.fail "expected a parse error"
    | Error d, log ->
      Alcotest.(check string) "fails in parse" "parse" d.Diag.stage;
      statuses log
  in
  Alcotest.(check (list (pair string string)))
    "first failure executes parse"
    [ ("parse", "failed") ]
    (fail_log ());
  Alcotest.(check (list (pair string string)))
    "second failure executes parse again (uncached)"
    [ ("parse", "failed") ]
    (fail_log ())

(* --- route is unconditional and its QoR reaches the snapshot --- *)

let capture_counter ?restarts () =
  with_recorder @@ fun r ->
  (match C.compile_behavior ?restarts Sc_core.Designs.counter_src with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "compile failed: %s" (Diag.to_string d));
  M.capture ~recorder:r ~design:"counter" ()

let test_route_in_snapshot () =
  with_clean_pipeline @@ fun () ->
  let s = capture_counter () in
  List.iter
    (fun key ->
      check_bool (key ^ " present in QoR") true
        (List.assoc_opt key s.M.qor <> None))
    [ "route.tracks"; "route.height"; "route.channels"; "drc.violations" ];
  check_bool "channels routed" true
    (match List.assoc_opt "route.channels" s.M.qor with
    | Some n -> n > 0.
    | None -> false)

(* --- warm-run QoR byte identity, and the hit counters --- *)

let test_warm_qor_identity () =
  with_clean_pipeline @@ fun () ->
  P.enable_cache ();
  Fun.protect ~finally:(fun () -> Sc_par.Pool.set_default_size 1)
  @@ fun () ->
  Sc_par.Pool.set_default_size 1;
  let cold = capture_counter ~restarts:3 () in
  Sc_par.Pool.set_default_size 4;
  let warm = capture_counter ~restarts:3 () in
  Alcotest.(check string) "warm -j4 QoR bytes = cold -j1 QoR bytes"
    (M.qor_string cold) (M.qor_string warm);
  check_bool "snapshot is non-trivial" true (List.length cold.M.qor > 5);
  (* the warm run was all hits, visible in the runtime section *)
  let rt key =
    match List.assoc_opt key warm.M.runtime with Some v -> v | None -> 0.
  in
  check_bool "pipeline hit counter recorded" true (rt "pipeline.parse.hit" >= 1.);
  check_bool "store hit counter recorded" true (rt "cache.parse.hit" >= 1.);
  check_bool "no warm misses" true (rt "cache.parse.miss" = 0.);
  check_bool "runtime keys stay out of QoR" true
    (List.for_all (fun (k, _) -> not (M.is_runtime_key k)) warm.M.qor)

(* --- concurrency: the store is created once, the journal is per-thread --- *)

(* a reusable two-phase barrier so every thread hits the racy region
   together *)
let barrier n =
  let m = Mutex.create () and cv = Condition.create () in
  let arrived = ref 0 and generation = ref 0 in
  fun () ->
    Mutex.protect m (fun () ->
        let gen = !generation in
        incr arrived;
        if !arrived = n then begin
          arrived := 0;
          incr generation;
          Condition.broadcast cv
        end
        else
          while !generation = gen do
            Condition.wait cv m
          done)

(* 8 threads race one freshly-registered pass, repeatedly.  Before the
   store creation was locked, two threads could each install their own
   store and the loser's counters vanished; with one store, every run is
   accounted for: hits + disk hits + misses = runs *)
let test_store_creation_race () =
  with_clean_pipeline @@ fun () ->
  P.enable_cache ();
  let nthreads = 8 and rounds = 20 in
  for round = 0 to rounds - 1 do
    let execs = Atomic.make 0 in
    let name = Printf.sprintf "unit_hammer_%d" round in
    let pass =
      P.register ~name (fun n ->
          Atomic.incr execs;
          Ok (n + 1))
    in
    let input = P.inject ~tag:"n" ~repr:"7" 7 in
    let sync = barrier nthreads in
    let failures = Atomic.make 0 in
    let worker () =
      sync ();
      match P.run pass input with
      | Ok out -> if P.value out <> 8 then Atomic.incr failures
      | Error _ -> Atomic.incr failures
    in
    let ts = List.init nthreads (fun _ -> Thread.create worker ()) in
    List.iter Thread.join ts;
    check_int "every thread got the result" 0 (Atomic.get failures);
    match List.assoc_opt name (P.cache_stats ()) with
    | None -> Alcotest.fail "store expected"
    | Some s ->
      check_int
        (Printf.sprintf "round %d: one store accounts for every run" round)
        nthreads
        (s.Sc_cache.Cache.hits + s.Sc_cache.Cache.disk_hits
       + s.Sc_cache.Cache.misses);
      check_int
        (Printf.sprintf "round %d: misses are the real executions" round)
        (Atomic.get execs) s.Sc_cache.Cache.misses
  done

(* two threads interleave compilations; each journal sees only its own
   passes, and nested contexts restore the outer one on exit *)
let test_journal_isolation () =
  with_clean_pipeline @@ fun () ->
  let mk_pass name =
    P.register ~name (fun n -> Ok (n + 1))
  in
  let a = mk_pass "unit_journal_a" and b = mk_pass "unit_journal_b" in
  let sync = barrier 2 in
  let observed = Array.make 2 [] in
  let worker idx pass n () =
    let (), log =
      P.with_log @@ fun () ->
      sync ();
      for _ = 1 to n do
        ignore (P.run pass (P.inject ~tag:"n" ~repr:"1" 1))
      done;
      sync ()
    in
    observed.(idx) <- List.map fst log
  in
  let t1 = Thread.create (worker 0 a 3) () in
  let t2 = Thread.create (worker 1 b 5) () in
  Thread.join t1;
  Thread.join t2;
  Alcotest.(check (list string))
    "thread 1 sees only its own passes"
    [ "unit_journal_a"; "unit_journal_a"; "unit_journal_a" ]
    observed.(0);
  Alcotest.(check (list string))
    "thread 2 sees only its own passes"
    [ "unit_journal_b"; "unit_journal_b"; "unit_journal_b"; "unit_journal_b"
    ; "unit_journal_b"
    ]
    observed.(1);
  let once pass = ignore (P.run pass (P.inject ~tag:"n" ~repr:"1" 1)) in
  let (inner, certified_inside), outer =
    P.with_log @@ fun () ->
    once a;
    let inner =
      P.with_certify true @@ fun () ->
      let (), inner = P.with_log (fun () -> once b) in
      (inner, P.certify_enabled ())
    in
    once a;
    inner
  in
  Alcotest.(check (list string)) "an inner journal keeps its own entries"
    [ "unit_journal_b" ] (List.map fst inner);
  Alcotest.(check (list string)) "the outer journal resumes after it"
    [ "unit_journal_a"; "unit_journal_a" ] (List.map fst outer);
  check_bool "certify scoped inside" true certified_inside;
  check_bool "certify restored outside" false (P.certify_enabled ())

(* append_log splices foreign journal entries (a module sub-pipeline's
   run log, prefixed by its driver) onto the calling thread's journal,
   preserving order relative to locally run passes *)
let test_append_log () =
  with_clean_pipeline @@ fun () ->
  let p = P.register ~name:"unit_append" (fun n -> Ok (n + 1)) in
  let (), log =
    P.with_log @@ fun () ->
    P.append_log [ ("m1:parse", P.Ran); ("m1:place", P.Hit) ];
    ignore (P.run p (P.inject ~tag:"n" ~repr:"7" 7));
    P.append_log [ ("m2:parse", P.Ran) ]
  in
  Alcotest.(check (list string))
    "spliced in order"
    [ "m1:parse"; "m1:place"; "unit_append"; "m2:parse" ]
    (List.map fst log);
  (match log with
  | (_, P.Ran) :: (_, P.Hit) :: _ -> ()
  | _ -> Alcotest.fail "statuses preserved");
  (* outside any journal, appending is a no-op that leaves nothing *)
  P.append_log [ ("stray:emit", P.Ran) ];
  let (), fresh = P.with_log (fun () -> ()) in
  Alcotest.(check (list string)) "no stray entries" [] (List.map fst fresh)

let suite =
  [ Alcotest.test_case "staged keys" `Quick test_staged_keys
  ; Alcotest.test_case "pass cache and log" `Quick test_pass_cache_and_log
  ; Alcotest.test_case "errors are values, never cached" `Quick
      test_errors_are_values_and_uncached
  ; Alcotest.test_case "incremental invalidation matrix" `Quick
      test_incremental_invalidation
  ; Alcotest.test_case "route QoR in snapshot" `Quick test_route_in_snapshot
  ; Alcotest.test_case "warm QoR byte identity" `Quick test_warm_qor_identity
  ; Alcotest.test_case "store creation race" `Quick test_store_creation_race
  ; Alcotest.test_case "journal isolation" `Quick test_journal_isolation
  ; Alcotest.test_case "append_log splices journals" `Quick test_append_log
  ]
