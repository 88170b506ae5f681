(* The domain worker pool: ordered reduction, deterministic exception
   propagation, byte-identical results at any pool width, and the
   offloaded calls the daemon's execution domains run. *)

open Sc_par

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_pool n f =
  let pool = Pool.create ~domains:n () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let test_map_ordered () =
  with_pool 4 @@ fun pool ->
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int))
    "results in submission order"
    (List.map (fun i -> i * i) xs)
    (Pool.run pool (List.map (fun i () -> i * i) xs))

let test_sequential_pool () =
  with_pool 1 @@ fun pool ->
  check_int "one domain" 1 (Pool.size pool);
  Alcotest.(check (list int)) "runs in the caller" [ 0; 1; 4; 9 ]
    (Pool.run pool (List.map (fun i () -> i * i) [ 0; 1; 2; 3 ]))

let test_size_clamped () =
  with_pool 0 @@ fun pool -> check_int "clamped to 1" 1 (Pool.size pool)

let test_empty_batch () =
  with_pool 4 @@ fun pool ->
  check_int "empty run" 0 (List.length (Pool.run pool []))

exception Boom of int

let test_earliest_exception_wins () =
  with_pool 4 @@ fun pool ->
  let tasks =
    List.init 40 (fun i () -> if i = 7 || i = 31 then raise (Boom i) else i)
  in
  (match Pool.run pool tasks with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> check_int "earliest failing task wins" 7 i);
  (* a failed batch must not wedge the pool *)
  Alcotest.(check (list int)) "pool survives the failure" [ 2; 4; 6 ]
    (Pool.run pool (List.map (fun i () -> 2 * i) [ 1; 2; 3 ]))

(* Two submitters share one 2-wide pool, each under its own enabled
   recorder (the daemon's overlapping compiles).  A waiting caller
   helps with its own batch only, so no task may run on the other
   submitter's domain — when one did, the per-domain load gauges
   raised [Not_found] out of [run]. *)
let test_concurrent_submitters () =
  with_pool 2 @@ fun pool ->
  let batches = 300 and width = 8 in
  let ready = Atomic.make 0 in
  (* long enough that the two submitters' batches overlap *)
  let task i () =
    for _ = 1 to 2000 do
      Domain.cpu_relax ()
    done;
    ((Domain.self () :> int), i)
  in
  let submitter () =
    let me = (Domain.self () :> int) in
    let r = Sc_obs.Obs.Recorder.create () in
    Sc_obs.Obs.Recorder.enable r;
    Sc_obs.Obs.with_recorder r @@ fun () ->
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    let ran = ref [] and ordered = ref true in
    for _ = 1 to batches do
      let ids = Pool.run pool (List.init width task) in
      ordered := !ordered && List.map snd ids = List.init width Fun.id;
      ran := List.map fst ids @ !ran
    done;
    (me, !ran, !ordered)
  in
  let a = Domain.spawn submitter and b = Domain.spawn submitter in
  let da, ran_a, ok_a = Domain.join a and db, ran_b, ok_b = Domain.join b in
  check_bool "batches in order" true (ok_a && ok_b);
  check_bool "no task of A ran on B's domain" false (List.mem db ran_a);
  check_bool "no task of B ran on A's domain" false (List.mem da ran_b)

(* a task may submit to the pool it runs on: results stay in order at
   every level and the earliest failure wins across the nesting *)
let test_nested_submission () =
  List.iter
    (fun n ->
      with_pool n @@ fun pool ->
      let got =
        Pool.run pool
          (List.init 6 (fun i () ->
               Pool.run pool (List.map (fun j () -> (10 * i) + j) [ 0; 1; 2; 3 ])))
      in
      Alcotest.(check (list (list int)))
        (Printf.sprintf "nested results in order at %d domains" n)
        (List.init 6 (fun i -> List.init 4 (fun j -> (10 * i) + j)))
        got;
      let boom i j () =
        if (i = 2 && j = 3) || (i = 4 && j = 0) then raise (Boom ((10 * i) + j))
      in
      match
        Pool.run pool
          (List.init 6 (fun i () ->
               ignore (Pool.run pool (List.init 5 (fun j -> boom i j)))))
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom k ->
        check_int (Printf.sprintf "earliest nested failure at %d domains" n) 23 k)
    [ 1; 2; 4 ]

(* --- offload: one job on a worker while the caller sleeps --- *)

let self () = (Domain.self () :> int)

let test_offload_on_worker () =
  with_pool 3 @@ fun pool ->
  let caller = self () in
  check_bool "the thunk runs on a worker, not the caller's domain" true
    (List.for_all (fun d -> d <> caller)
       (List.init 20 (fun _ -> Pool.offload pool self)));
  let k = Sc_obs.Scope.key 0 in
  check_int "the submitter's scope is bound inside the thunk" 42
    (Sc_obs.Scope.with_ k 42 (fun () ->
         Pool.offload pool (fun () -> Sc_obs.Scope.get k)))

let test_offload_exception () =
  with_pool 2 @@ fun pool ->
  let worker = Pool.offload pool self in
  (match Pool.offload pool (fun () -> raise (Boom 3)) with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> check_int "the exception reaches the caller" 3 i);
  check_int "the same worker serves the next call" worker
    (Pool.offload pool self)

(* the worker count is the only bound: 8 systhreads, 2 workers *)
let test_offload_bounded () =
  with_pool 3 @@ fun pool ->
  let running = Atomic.make 0 and peak = Atomic.make 0 in
  let done_ = Atomic.make 0 in
  let job () =
    let now = Atomic.fetch_and_add running 1 + 1 in
    let rec raise_peak () =
      let p = Atomic.get peak in
      if now > p && not (Atomic.compare_and_set peak p now) then raise_peak ()
    in
    raise_peak ();
    for _ = 1 to 20_000 do
      Domain.cpu_relax ()
    done;
    Atomic.decr running
  in
  let threads =
    List.init 8 (fun _ ->
        Thread.create
          (fun () ->
            for _ = 1 to 50 do
              Pool.offload pool job;
              Atomic.incr done_
            done)
          ())
  in
  List.iter Thread.join threads;
  check_int "every call completed" 400 (Atomic.get done_);
  check_bool "at most 2 ran at once" true (Atomic.get peak <= 2)

let test_offload_inline () =
  (with_pool 2 @@ fun pool ->
   let outer, inner =
     Pool.offload pool (fun () -> (self (), Pool.offload pool self))
   in
   check_int "a call from the pool's own worker runs inline" outer inner);
  with_pool 1 @@ fun pool ->
  check_int "a pool with no workers runs the thunk inline" (self ())
    (Pool.offload pool self)

(* --- single-flight --- *)

let test_single_flight_shares () =
  let sf = Single_flight.create () in
  let computed = Atomic.make 0 in
  let n = 6 in
  let started = Atomic.make 0 in
  let release = Atomic.make false in
  let caller () =
    Atomic.incr started;
    Single_flight.run sf "k" (fun () ->
        Atomic.incr computed;
        (* hold the flight until every caller has arrived *)
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done;
        42)
  in
  let ds = List.init n (fun _ -> Domain.spawn caller) in
  while Atomic.get started < n do
    Domain.cpu_relax ()
  done;
  Unix.sleepf 0.2;
  Atomic.set release true;
  let rs = List.map Domain.join ds in
  check_int "computed once" 1 (Atomic.get computed);
  check_bool "every caller got the value" true
    (List.for_all (fun (_, v) -> v = 42) rs);
  check_int "one owner" 1
    (List.length (List.filter (fun (h, _) -> h = `Fresh) rs));
  check_int "the rest shared" (n - 1)
    (List.length (List.filter (fun (h, _) -> h = `Shared) rs))

let test_single_flight_raises () =
  let sf = Single_flight.create () in
  let entered = Atomic.make false and release = Atomic.make false in
  let owner =
    Domain.spawn (fun () ->
        match
          Single_flight.run sf "k" (fun () ->
              Atomic.set entered true;
              while not (Atomic.get release) do
                Domain.cpu_relax ()
              done;
              raise (Boom 1))
        with
        | _ -> None
        | exception Boom i -> Some i)
  in
  while not (Atomic.get entered) do
    Domain.cpu_relax ()
  done;
  let arrived = Atomic.make 0 in
  let waiters =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr arrived;
            match Single_flight.run sf "k" (fun () -> 0) with
            | _ -> None
            | exception Boom i -> Some i))
  in
  while Atomic.get arrived < 3 do
    Domain.cpu_relax ()
  done;
  Unix.sleepf 0.2;
  Atomic.set release true;
  check_bool "owner sees its exception" true (Domain.join owner = Some 1);
  List.iter
    (fun d ->
      check_bool "waiter sees the owner's exception" true
        (Domain.join d = Some 1))
    waiters;
  match Single_flight.run sf "k" (fun () -> 7) with
  | `Fresh, 7 -> ()
  | _ -> Alcotest.fail "the key is freed: the next call recomputes"

(* --- the one batch caller: the flat DRC kernel at any width --- *)

let dirty_cell () =
  let open Sc_geom in
  let open Sc_tech in
  let open Sc_layout in
  Cell.make ~name:"dirty"
    [ Cell.box Layer.Poly (Rect.make 0 0 1 10) (* narrow *)
    ; Cell.box Layer.Metal (Rect.make 0 20 10 23)
    ; Cell.box Layer.Metal (Rect.make 0 25 10 28) (* too close *)
    ; Cell.box Layer.Diffusion (Rect.make 20 0 24 4)
    ; Cell.box Layer.Poly (Rect.make 24 0 28 4) (* abutment *)
    ; Cell.box Layer.Contact (Rect.make 40 0 42 2)
    ; Cell.box Layer.Metal (Rect.make 40 0 43 3) (* bad enclosure *)
    ]

let test_drc_identical_across_widths () =
  let c = dirty_cell () in
  let seq = Sc_drc.Checker.check c in
  check_bool "the cell is dirty" true (List.length seq > 0);
  let flat = Sc_layout.Flatten.run c in
  List.iter
    (fun n ->
      let par = with_pool n (fun pool -> Sc_drc.Checker.check_flat ~pool flat) in
      check_bool (Printf.sprintf "same violation list at %d domains" n) true
        (par = seq))
    [ 1; 2; 4; 8 ]

(* a task runs in its submitter's whole scope, whichever domain claims
   it: the recorder, the certify flag and the journal all carry over,
   and none of them outlives the batch on a worker *)
let test_tasks_inherit_scope () =
  let module Obs = Sc_obs.Obs in
  let module P = Sc_pipeline.Pipeline in
  List.iter
    (fun n ->
      with_pool n @@ fun pool ->
      let r = Obs.Recorder.create () in
      Obs.Recorder.enable r;
      let certified, log =
        Obs.with_recorder r @@ fun () ->
        P.with_certify true @@ fun () ->
        P.with_log @@ fun () ->
        Pool.run pool
          (List.init 64 (fun i () ->
               Obs.count "scoped.count" 1;
               P.append_log [ (string_of_int i, P.Ran) ];
               P.certify_enabled ()))
      in
      let at = Printf.sprintf " at %d domains" n in
      check_bool ("every task certifies" ^ at) true
        (List.for_all Fun.id certified);
      Alcotest.(check (option int))
        ("every task records into the submitter's recorder" ^ at)
        (Some 64)
        (List.assoc_opt "scoped.count" (Obs.Recorder.totals r));
      Alcotest.(check (list int))
        ("every task journals into the submitter's log" ^ at)
        (List.init 64 Fun.id)
        (List.sort compare (List.map (fun (k, _) -> int_of_string k) log));
      let leaked =
        Pool.run pool
          (List.init 64 (fun _ () -> P.certify_enabled () || Obs.enabled ()))
      in
      check_bool ("no scope outlives its batch" ^ at) false
        (List.exists Fun.id leaked))
    [ 1; 2; 4 ]

let suite =
  [ Alcotest.test_case "map keeps submission order" `Quick test_map_ordered
  ; Alcotest.test_case "size-1 pool is sequential" `Quick test_sequential_pool
  ; Alcotest.test_case "size clamps to 1" `Quick test_size_clamped
  ; Alcotest.test_case "empty batch" `Quick test_empty_batch
  ; Alcotest.test_case "earliest exception wins" `Quick
      test_earliest_exception_wins
  ; Alcotest.test_case "concurrent submitters stay apart" `Quick
      test_concurrent_submitters
  ; Alcotest.test_case "nested submission" `Quick test_nested_submission
  ; Alcotest.test_case "offload runs on a worker in the submitter's scope"
      `Quick test_offload_on_worker
  ; Alcotest.test_case "offload re-raises and the worker survives" `Quick
      test_offload_exception
  ; Alcotest.test_case "offload is bounded by the worker count" `Quick
      test_offload_bounded
  ; Alcotest.test_case "offload runs inline with no worker to take it"
      `Quick test_offload_inline
  ; Alcotest.test_case "single-flight shares one computation" `Quick
      test_single_flight_shares
  ; Alcotest.test_case "single-flight owner exception reaches waiters" `Quick
      test_single_flight_raises
  ; Alcotest.test_case "DRC identical at any width" `Quick
      test_drc_identical_across_widths
  ; Alcotest.test_case "pool tasks run in their submitter's scope" `Quick
      test_tasks_inherit_scope
  ]
