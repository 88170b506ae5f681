(* lib/obs telemetry primitives: log-bucketed histograms and the JSONL
   structured logger.  Both are what the serve daemon aggregates per
   verb / writes per request, so the properties asserted here (bucket
   boundaries, exact percentiles on uniform buckets, one valid JSON
   object per line, no interleaving under concurrent writers) are load
   bearing for the stats reply and the --log file. *)

module H = Sc_obs.Histogram
module Slog = Sc_obs.Slog
module Json = Sc_obs.Json

(* --- histograms --- *)

(* A percentile answers with the mean of its rank's bucket, so the
   median of two samples a < b is a exactly when they land in different
   buckets, and their rounded mean when they share one. *)
let median_of a b =
  let h = H.create () in
  H.add h a;
  H.add h b;
  H.percentile h 50.0

let test_bucket_boundaries () =
  let apart what a b = Alcotest.(check int) what a (median_of a b) in
  let shared what a b =
    Alcotest.(check int) what
      (int_of_float (Float.round (float_of_int (a + b) /. 2.0)))
      (median_of a b)
  in
  apart "0 and 1 in buckets 0 and 1" 0 1;
  Alcotest.(check int) "negative clamps to bucket 0" 0 (median_of (-5) 1);
  apart "1 and 2 in buckets 1 and 2" 1 2;
  shared "2 and 3 share bucket 2" 2 3;
  apart "4 opens bucket 3" 3 4;
  (* power-of-two edges: 2^i opens bucket i+1, 2^i - 1 closes bucket i *)
  for i = 1 to 20 do
    let lo = 1 lsl i in
    apart (Printf.sprintf "2^%d opens bucket %d" i (i + 1)) (lo - 1) lo;
    shared
      (Printf.sprintf "2^%d .. 2^%d - 1 is bucket %d" i (i + 1) (i + 1))
      lo
      ((2 * lo) - 1)
  done;
  shared "bucket 5 is 16 .. 31" 16 31;
  apart "15 is below bucket 5" 15 16;
  apart "32 is above bucket 5" 31 32

let test_empty_histogram () =
  let h = H.create () in
  Alcotest.(check int) "count" 0 (H.count h);
  Alcotest.(check int) "percentile" 0 (H.percentile h 99.0)

let test_exact_percentiles () =
  (* all samples in a rank's bucket equal -> the estimate is exact.
     100 samples: 50x 10us, 45x 100us, 5x 1000us. *)
  let h = H.create () in
  for _ = 1 to 50 do H.add h 10 done;
  for _ = 1 to 45 do H.add h 100 done;
  for _ = 1 to 5 do H.add h 1000 done;
  Alcotest.(check int) "count" 100 (H.count h);
  Alcotest.(check int) "p50 = 10us (rank 50 is the last 10)" 10
    (H.percentile h 50.0);
  Alcotest.(check int) "p95 = 100us (rank 95 is the last 100)" 100
    (H.percentile h 95.0);
  Alcotest.(check int) "p99 = 1000us" 1000 (H.percentile h 99.0);
  Alcotest.(check int) "p0 clamps to rank 1" 10 (H.percentile h 0.0);
  Alcotest.(check int) "p100 is the top bucket" 1000 (H.percentile h 100.0)

let test_percentile_bounded_error () =
  (* mixed values within one bucket: the estimate is the bucket mean,
     which must sit inside the bucket's bounds *)
  let h = H.create () in
  List.iter (H.add h) [ 17; 19; 23; 29; 31 ];
  (* all in bucket [16..31] *)
  let p = H.percentile h 50.0 in
  Alcotest.(check bool) "estimate within the rank's bucket" true
    (p >= 16 && p <= 31);
  Alcotest.(check int) "estimate is the rounded bucket mean"
    (int_of_float (Float.round (float_of_int (17 + 19 + 23 + 29 + 31) /. 5.0)))
    p

let test_histogram_concurrent_add () =
  let h = H.create () in
  let per_thread = 1000 in
  let threads =
    List.init 8 (fun i ->
        Thread.create
          (fun () ->
            for _ = 1 to per_thread do H.add h (1 lsl (i mod 4)) done)
          ())
  in
  List.iter Thread.join threads;
  Alcotest.(check int) "no lost updates" (8 * per_thread) (H.count h)

(* --- structured JSONL log --- *)

let with_log ?level f =
  let path = Filename.temp_file "scc-test-slog" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (match Slog.create ?level path with
      | Ok t ->
        Fun.protect ~finally:(fun () -> Slog.close t) (fun () -> f t)
      | Error e -> Alcotest.failf "slog create: %s" e);
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
          List.rev !lines))

let parse_line line =
  match Json.parse line with
  | Ok v -> v
  | Error e -> Alcotest.failf "line is not valid JSON: %s (%s)" line e

let test_slog_lines_parse () =
  let lines =
    with_log (fun t ->
        Slog.log t Slog.Info ~event:"start" [ ("socket", Json.Str "/tmp/x") ];
        Slog.log t Slog.Warn ~event:"trace_write_failed"
          [ ("error", Json.Str "disk \"full\"\nno space") ];
        Slog.log t Slog.Error ~event:"boom" [ ("n", Json.Num 3.0) ])
  in
  Alcotest.(check int) "three lines" 3 (List.length lines);
  List.iter
    (fun line ->
      let v = parse_line line in
      (match Json.member "ts" v with
      | Some (Json.Num _) -> ()
      | _ -> Alcotest.fail "ts missing");
      match Json.member "level" v with
      | Some (Json.Str _) -> ()
      | _ -> Alcotest.fail "level missing")
    lines;
  let second = parse_line (List.nth lines 1) in
  Alcotest.(check bool) "escaped payload survives the roundtrip" true
    (Json.member "error" second = Some (Json.Str "disk \"full\"\nno space"));
  Alcotest.(check bool) "event field carried" true
    (Json.member "event" second = Some (Json.Str "trace_write_failed"))

let test_slog_level_filter () =
  let lines =
    with_log ~level:Slog.Warn (fun t ->
        Alcotest.(check bool) "would_log debug" false (Slog.would_log t Slog.Debug);
        Alcotest.(check bool) "would_log info" false (Slog.would_log t Slog.Info);
        Alcotest.(check bool) "would_log warn" true (Slog.would_log t Slog.Warn);
        Alcotest.(check bool) "would_log error" true (Slog.would_log t Slog.Error);
        Slog.log t Slog.Debug ~event:"dropped" [];
        Slog.log t Slog.Info ~event:"dropped" [];
        Slog.log t Slog.Warn ~event:"kept" [];
        Slog.log t Slog.Error ~event:"kept" [])
  in
  Alcotest.(check int) "only warn and error written" 2 (List.length lines);
  List.iter
    (fun line ->
      Alcotest.(check bool) "kept line" true
        (Json.member "event" (parse_line line) = Some (Json.Str "kept")))
    lines

let test_slog_level_strings () =
  List.iter
    (fun l ->
      match Slog.level_of_string (Slog.level_to_string l) with
      | Ok l' -> Alcotest.(check bool) "level roundtrip" true (l = l')
      | Error e -> Alcotest.fail e)
    [ Slog.Debug; Slog.Info; Slog.Warn; Slog.Error ];
  match Slog.level_of_string "loud" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad level accepted"

let test_slog_concurrent_writers () =
  let nthreads = 8 and per_thread = 200 in
  let lines =
    with_log (fun t ->
        let threads =
          List.init nthreads (fun i ->
              Thread.create
                (fun () ->
                  for j = 1 to per_thread do
                    Slog.log t Slog.Info ~event:"tick"
                      [ ("thread", Json.Num (float_of_int i))
                      ; ("seq", Json.Num (float_of_int j))
                      ]
                  done)
                ())
        in
        List.iter Thread.join threads)
  in
  Alcotest.(check int) "every write is one line" (nthreads * per_thread)
    (List.length lines);
  (* no interleaving: every line parses and carries both fields *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun line ->
      let v = parse_line line in
      match (Json.member "thread" v, Json.member "seq" v) with
      | Some (Json.Num th), Some (Json.Num _) ->
        let th = int_of_float th in
        Hashtbl.replace seen th (1 + Option.value ~default:0 (Hashtbl.find_opt seen th))
      | _ -> Alcotest.fail "line missing its fields")
    lines;
  for i = 0 to nthreads - 1 do
    Alcotest.(check (option int))
      (Printf.sprintf "thread %d wrote all its lines" i)
      (Some per_thread) (Hashtbl.find_opt seen i)
  done

let suite =
  [ Alcotest.test_case "histogram bucket boundaries" `Quick
      test_bucket_boundaries
  ; Alcotest.test_case "empty histogram" `Quick test_empty_histogram
  ; Alcotest.test_case "exact percentiles" `Quick test_exact_percentiles
  ; Alcotest.test_case "percentile bounded error" `Quick
      test_percentile_bounded_error
  ; Alcotest.test_case "concurrent add" `Quick test_histogram_concurrent_add
  ; Alcotest.test_case "jsonl lines parse" `Quick test_slog_lines_parse
  ; Alcotest.test_case "level filtering" `Quick test_slog_level_filter
  ; Alcotest.test_case "level strings" `Quick test_slog_level_strings
  ; Alcotest.test_case "concurrent writers" `Quick
      test_slog_concurrent_writers
  ]
