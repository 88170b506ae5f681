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

(* the quarter-octave a value v >= 1 lies in: floor (4 log2 v), the
   largest k with 2^k <= v^4 (exact for v < 2^15) *)
let quarter_octave v =
  let rec bits acc x = if x = 0 then acc else bits (acc + 1) (x lsr 1) in
  bits 0 (v * v * v * v) - 1

let test_bucket_boundaries () =
  let apart what a b = Alcotest.(check int) what a (median_of a b) in
  let shared what a b =
    Alcotest.(check int) what
      (int_of_float (Float.round (float_of_int (a + b) /. 2.0)))
      (median_of a b)
  in
  apart "0 and 1 in buckets 0 and 1" 0 1;
  Alcotest.(check int) "negative clamps to bucket 0" 0 (median_of (-5) 1);
  (* every edge below 2^13: v and v + 1 share a bucket exactly when
     they share a quarter-octave *)
  for v = 1 to 8192 do
    let what = Printf.sprintf "%d and %d" v (v + 1) in
    if quarter_octave v = quarter_octave (v + 1) then shared what v (v + 1)
    else apart what v (v + 1)
  done;
  shared "128 .. 152 is one bucket (2^7.25 = 152.2)" 128 152;
  apart "153 opens the next" 152 153;
  (* power-of-two edges above that: 2^i opens a bucket, and 2^i + 2^i/8
     (below 2^(i + 1/4)) is still in it *)
  for i = 13 to 52 do
    let lo = 1 lsl i in
    apart (Printf.sprintf "2^%d opens a bucket" i) (lo - 1) lo;
    shared (Printf.sprintf "2^%d + 2^%d/8 shares it" i i) lo (lo + (lo / 8))
  done

(* any percentile of any samples is within 19 % of the true
   nearest-rank value: both lie in one bucket, whose largest value is
   below 2^(1/4) times its smallest *)
let test_percentile_relative_error () =
  let rng = Random.State.make [| 38 |] in
  for trial = 1 to 40 do
    let h = H.create () in
    let n = 1 + Random.State.int rng 2000 in
    (* log-uniform over 1 .. 2^(4 + trial / 2) *)
    let top = 4.0 +. (float_of_int trial /. 2.0) in
    let xs =
      Array.init n (fun _ ->
          let v =
            int_of_float (Float.pow 2.0 (Random.State.float rng top))
          in
          H.add h v;
          v)
    in
    Array.sort compare xs;
    List.iter
      (fun p ->
        let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
        let exact = xs.(max 1 (min n rank) - 1) in
        let est = H.percentile h p in
        let err =
          Float.abs (float_of_int (est - exact)) /. float_of_int exact
        in
        if err >= 0.19 then
          Alcotest.failf "trial %d, p%g of %d samples: %d for %d (%.1f %%)"
            trial p n est exact (100.0 *. err))
      [ 0.0; 1.0; 10.0; 25.0; 50.0; 75.0; 90.0; 95.0; 99.0; 99.9; 100.0 ]
  done

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
  List.iter (H.add h) [ 129; 133; 140; 147; 151 ];
  (* all in bucket [128..152] *)
  let p = H.percentile h 50.0 in
  Alcotest.(check bool) "estimate within the rank's bucket" true
    (p >= 128 && p <= 152);
  Alcotest.(check int) "estimate is the rounded bucket mean"
    (int_of_float
       (Float.round (float_of_int (129 + 133 + 140 + 147 + 151) /. 5.0)))
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
  ; Alcotest.test_case "percentile relative error under 19 %" `Quick
      test_percentile_relative_error
  ; Alcotest.test_case "concurrent add" `Quick test_histogram_concurrent_add
  ; Alcotest.test_case "jsonl lines parse" `Quick test_slog_lines_parse
  ; Alcotest.test_case "level filtering" `Quick test_slog_level_filter
  ; Alcotest.test_case "level strings" `Quick test_slog_level_strings
  ; Alcotest.test_case "concurrent writers" `Quick
      test_slog_concurrent_writers
  ]
