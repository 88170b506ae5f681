(* The content-addressed memo store: LRU accounting, disk persistence,
   the value-level lookup/add tier, and the per-stage pipeline cache
   wired into the compiler. *)

open Sc_cache

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let k name = Cache.digest name

let test_digest_stable () =
  Alcotest.(check string) "md5 hex" "900150983cd24fb0d6963f7d28e17f72"
    (Cache.digest "abc");
  check_bool "distinct contents, distinct keys" true
    (Cache.digest "abc" <> Cache.digest "abd")

let test_lru_eviction_and_stats () =
  let c : int Cache.t = Cache.create ~capacity:2 ~name:"t" () in
  check_int "k1 computed" 1 (Cache.find_or_add c (k "k1") (fun () -> 1));
  check_int "k2 computed" 2 (Cache.find_or_add c (k "k2") (fun () -> 2));
  (* refresh k1 so k2 is the least recently used *)
  check_int "k1 hit" 1 (Cache.find_or_add c (k "k1") (fun () -> 99));
  check_int "k3 computed, evicting k2" 3
    (Cache.find_or_add c (k "k3") (fun () -> 3));
  check_bool "k2 evicted" true (Cache.lookup c (k "k2") = `Absent);
  check_bool "k1 survives (was refreshed)" true
    (Cache.lookup c (k "k1") = `Memory 1);
  let s = Cache.stats c in
  check_int "entries" 2 s.Cache.entries;
  check_int "evictions" 1 s.Cache.evictions;
  (* hits: the k1 refresh + the lookup that found k1 *)
  check_int "hits" 2 s.Cache.hits;
  check_int "misses" 3 s.Cache.misses

let test_capacity_clamped () =
  let c : int Cache.t = Cache.create ~capacity:0 ~name:"t" () in
  check_bool "capacity at least 1" true ((Cache.stats c).Cache.capacity >= 1)

(* disk stores shard entries into subdirectories, so cleanup recurses *)
let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_temp_dir f =
  let dir = Filename.temp_file "scc-cache-test" "" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* where the disk layer puts an entry: dir/<first 2 key chars>/<name>-<key> *)
let entry_path dir name key =
  Filename.concat (Filename.concat dir (String.sub key 0 2)) (name ^ "-" ^ key)

let test_disk_persistence () =
  with_temp_dir @@ fun dir ->
  let c1 : int Cache.t = Cache.create ~dir ~name:"d" () in
  check_int "computed once" 42 (Cache.find_or_add c1 (k "pdp8") (fun () -> 42));
  (* a fresh store over the same directory serves the key from disk *)
  let c2 : int Cache.t = Cache.create ~dir ~name:"d" () in
  let computed = ref false in
  check_int "served from disk" 42
    (Cache.find_or_add c2 (k "pdp8")
       (fun () ->
         computed := true;
         0));
  check_bool "no recomputation" false !computed;
  check_int "disk hit counted" 1 (Cache.stats c2).Cache.disk_hits

let test_lookup_add () =
  let c : int Cache.t = Cache.create ~capacity:2 ~name:"t" () in
  (match Cache.lookup c (k "a") with
  | `Absent -> ()
  | _ -> Alcotest.fail "fresh key should be absent");
  Cache.add c (k "a") 1;
  (match Cache.lookup c (k "a") with
  | `Memory 1 -> ()
  | _ -> Alcotest.fail "added key should hit in memory");
  let s = Cache.stats c in
  check_int "add records the miss" 1 s.Cache.misses;
  check_int "lookup records the hit" 1 s.Cache.hits;
  (* probing an absent key counts nothing: the miss belongs to add *)
  (match Cache.lookup c (k "b") with `Absent -> () | _ -> Alcotest.fail "b");
  check_int "absent probe is not a miss" 1 (Cache.stats c).Cache.misses;
  with_temp_dir @@ fun dir ->
  let d1 : int Cache.t = Cache.create ~dir ~name:"d" () in
  Cache.add d1 (k "x") 9;
  let d2 : int Cache.t = Cache.create ~dir ~name:"d" () in
  (match Cache.lookup d2 (k "x") with
  | `Disk 9 -> ()
  | _ -> Alcotest.fail "fresh store over the same dir should hit disk");
  match Cache.lookup d2 (k "x") with
  | `Memory 9 -> ()
  | _ -> Alcotest.fail "a disk hit should load the value into memory"

let test_shard_layout () =
  with_temp_dir @@ fun dir ->
  let c : int Cache.t = Cache.create ~dir ~name:"s" () in
  let key = k "sharded" in
  Cache.add c key 11;
  check_bool "entry lands in its shard subdirectory" true
    (Sys.file_exists (entry_path dir "s" key));
  (* no tmp files survive the write-to-temp + rename protocol *)
  let leftovers = ref [] in
  let rec scan p =
    if Sys.is_directory p then
      Array.iter (fun f -> scan (Filename.concat p f)) (Sys.readdir p)
    else if
      String.split_on_char '.' (Filename.basename p)
      |> List.exists (String.equal "tmp")
    then leftovers := p :: !leftovers
  in
  scan dir;
  check_bool "no tmp files left behind" true (!leftovers = [])

(* a stale or foreign disk entry must read as a miss, never a crash *)
let test_disk_header_staleness () =
  with_temp_dir @@ fun dir ->
  let key = k "victim" in
  let write_raw bytes =
    let path = entry_path dir "h" key in
    let oc = open_out_bin path in
    bytes oc;
    close_out oc
  in
  let fresh_misses expect_stale name =
    let c : int Cache.t = Cache.create ~dir ~name:"h" () in
    (match Cache.lookup c key with
    | `Absent -> ()
    | _ -> Alcotest.fail (name ^ ": should read as a miss"));
    check_int (name ^ ": stale counted") expect_stale (Cache.stats c).Cache.stale
  in
  (* seed a valid entry so the shard directory exists *)
  let c : int Cache.t = Cache.create ~dir ~name:"h" () in
  Cache.add c key 5;
  (* wrong magic: a file some other program (or an old scc) wrote *)
  write_raw (fun oc -> output_string oc "NOTCACHE0 junk");
  fresh_misses 1 "wrong magic";
  (* right magic, wrong format version *)
  write_raw (fun oc ->
      output_string oc "SCCCACHE";
      output_binary_int oc 999_999);
  fresh_misses 1 "wrong version";
  (* a well-formed entry of format 1, whose cells stored their promoted
     ports: a miss, not a value of the wrong shape *)
  write_raw (fun oc ->
      output_string oc "SCCCACHE";
      output_binary_int oc 1;
      Marshal.to_channel oc 5 []);
  fresh_misses 1 "format 1";
  (* right header, torn payload: Marshal must not escape as a crash *)
  write_raw (fun oc ->
      output_string oc "SCCCACHE";
      output_binary_int oc 2;
      output_string oc "torn");
  fresh_misses 1 "torn payload";
  (* an empty file (a writer that died before the header) *)
  write_raw (fun _ -> ());
  fresh_misses 1 "empty file";
  (* and a good entry still round-trips after all that *)
  let c2 : int Cache.t = Cache.create ~dir ~name:"h" () in
  Cache.add c2 key 6;
  let c3 : int Cache.t = Cache.create ~dir ~name:"h" () in
  check_bool "valid entry still served" true (Cache.lookup c3 key = `Disk 6);
  check_int "no stale on the valid entry" 0 (Cache.stats c3).Cache.stale

(* the stage cache under the compiler: per-pass stores, errors uncached *)
let test_compiler_stage_cache () =
  let module C = Sc_core.Compiler in
  let module P = Sc_pipeline.Pipeline in
  P.disable_cache ();
  P.clear_caches ();
  P.enable_cache ();
  Fun.protect
    ~finally:(fun () ->
      P.disable_cache ();
      P.clear_caches ())
  @@ fun () ->
  let src = Sc_core.Designs.counter_src in
  let cif r =
    match r with
    | Ok (compiled, _) -> compiled.C.cif
    | Error d ->
      Alcotest.failf "compile failed: %s" (Sc_pipeline.Diag.to_string d)
  in
  let first = cif (C.compile_behavior src) in
  let second = cif (C.compile_behavior src) in
  check_bool "identical result" true (String.equal first second);
  (match List.assoc_opt "parse" (P.cache_stats ()) with
  | None -> Alcotest.fail "parse store expected while enabled"
  | Some s ->
    check_int "one parse" 1 s.Cache.misses;
    check_int "one parse hit" 1 s.Cache.hits);
  (* errors are never cached: the bad source stores nothing, and asking
     again still reports the error rather than a stale entry *)
  (match C.compile_behavior "definitely not ISP" with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error _ -> ());
  (match C.compile_behavior "definitely not ISP" with
  | Ok _ -> Alcotest.fail "expected a parse error again"
  | Error _ -> ());
  match List.assoc_opt "parse" (P.cache_stats ()) with
  | None -> Alcotest.fail "parse store expected while enabled"
  | Some s ->
    check_int "failures not stored" 1 s.Cache.entries;
    check_int "failures not counted as stored misses" 1 s.Cache.misses

(* the disk tier's LRU bound: oldest-mtime files go first, reads
   refresh recency, and evictions are counted *)
let test_disk_lru_eviction () =
  with_temp_dir @@ fun dir ->
  let c1 : int Cache.t =
    Cache.create ~dir ~disk_capacity:3 ~name:"e" ()
  in
  List.iteri
    (fun i key ->
      Cache.add c1 (k key) i;
      (* distinct mtimes so the LRU order is unambiguous *)
      Unix.sleepf 0.02)
    [ "a"; "b"; "c" ];
  check_int "within bound, nothing evicted" 0
    (Cache.stats c1).Cache.disk_evictions;
  (* a fresh store reads "a" from disk, refreshing its recency *)
  let c2 : int Cache.t =
    Cache.create ~dir ~disk_capacity:3 ~name:"e" ()
  in
  (match Cache.lookup c2 (k "a") with
  | `Disk 0 -> ()
  | _ -> Alcotest.fail "a should be served from disk");
  Unix.sleepf 0.02;
  (* the fourth entry pushes the tier over its bound: the least
     recently used file is now "b", not the refreshed "a" *)
  Cache.add c2 (k "d") 3;
  check_int "one eviction" 1 (Cache.stats c2).Cache.disk_evictions;
  let c3 : int Cache.t = Cache.create ~dir ~name:"e" () in
  (match Cache.lookup c3 (k "b") with
  | `Absent -> ()
  | _ -> Alcotest.fail "b should have been evicted");
  (match Cache.lookup c3 (k "a") with
  | `Disk 0 -> ()
  | _ -> Alcotest.fail "refreshed a should survive");
  match Cache.lookup c3 (k "d") with
  | `Disk 3 -> ()
  | _ -> Alcotest.fail "newest d should survive"

(* the byte bound evicts independently of the entry-count bound *)
let test_disk_byte_bound () =
  with_temp_dir @@ fun dir ->
  let c : string Cache.t =
    Cache.create ~dir ~disk_bytes:400 ~name:"b" ()
  in
  Cache.add c (k "one") (String.make 300 'x');
  Unix.sleepf 0.02;
  Cache.add c (k "two") (String.make 300 'y');
  check_bool "byte bound evicted the older entry" true
    ((Cache.stats c).Cache.disk_evictions >= 1);
  let c2 : string Cache.t = Cache.create ~dir ~name:"b" () in
  match Cache.lookup c2 (k "two") with
  | `Disk s -> check_int "newest survives intact" 300 (String.length s)
  | _ -> Alcotest.fail "newest entry should survive the byte bound"

let suite =
  [ Alcotest.test_case "digest is stable" `Quick test_digest_stable
  ; Alcotest.test_case "LRU eviction and stats" `Quick
      test_lru_eviction_and_stats
  ; Alcotest.test_case "capacity clamped" `Quick test_capacity_clamped
  ; Alcotest.test_case "disk persistence" `Quick test_disk_persistence
  ; Alcotest.test_case "lookup/add tiers" `Quick test_lookup_add
  ; Alcotest.test_case "sharded disk layout" `Quick test_shard_layout
  ; Alcotest.test_case "stale disk headers read as misses" `Quick
      test_disk_header_staleness
  ; Alcotest.test_case "compiler stage cache" `Quick
      test_compiler_stage_cache
  ; Alcotest.test_case "disk LRU eviction" `Quick test_disk_lru_eviction
  ; Alcotest.test_case "disk byte bound" `Quick test_disk_byte_bound
  ]
