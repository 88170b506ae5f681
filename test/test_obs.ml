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

(* --- the codec against its reference (test/json_reference.ml) --- *)

(* structural equality that tells -0.0 from 0.0 *)
let rec same_json a b =
  match (a, b) with
  | Json.Num x, Json.Num y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.Arr xs, Json.Arr ys ->
    List.length xs = List.length ys && List.for_all2 same_json xs ys
  | Json.Obj xs, Json.Obj ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (k, x) (l, y) -> String.equal k l && same_json x y) xs ys
  | _ -> a = b

let gen_number =
  QCheck.Gen.(
    oneof
      [ map float_of_int (int_range (-1000) 1000)
      ; (* integral values either side of 1e15, where printing switches
           from an int to [%.17g] *)
        map
          (fun (base, d) -> base +. float_of_int d)
          (pair (oneofl [ 1e15; -1e15; 9007199254740992.; -1e17; 1e20 ]) (int_range (-3) 3))
      ; map float_of_int (int_range (-1_000_000_000_000_000) 1_000_000_000_000_000)
      ; return (-0.0)
      ; return 0.0
      ; float_range (-1000.) 1000.
      ; map (fun (m, e) -> ldexp m e) (pair (float_range (-1.) 1.) (int_range (-1070) 1020))
      ])

(* every byte value, with the ones the printer rewrites over-weighted *)
let gen_string =
  QCheck.Gen.(
    let byte =
      frequency
        [ (4, char)
        ; (2, oneofl [ '"'; '\\'; '/'; '\n'; '\r'; '\t'; '\b'; '\012'; '\000'; '\031'; '\127' ])
        ; (3, printable)
        ]
    in
    oneof
      [ string_size ~gen:byte (int_range 0 24)
      ; oneofl [ ""; "unicode \xc3\xa9 \xe4\xb8\x96 \xf0\x9f\x98\x80"; "a\"b\\c"; "\x00\x1f\x7f\xff" ]
      ])

let gen_json =
  QCheck.Gen.(
    sized_size (int_range 0 4)
    @@ fix (fun self depth ->
           let leaf =
             oneof
               [ return Json.Null
               ; map (fun b -> Json.Bool b) bool
               ; map (fun f -> Json.Num f) gen_number
               ; map (fun s -> Json.Str s) gen_string
               ]
           in
           if depth = 0 then leaf
           else
             frequency
               [ (2, leaf)
               ; (1, map (fun l -> Json.Arr l) (list_size (int_range 0 5) (self (depth - 1))))
               ; ( 1
                 , map
                     (fun l -> Json.Obj l)
                     (list_size (int_range 0 5) (pair gen_string (self (depth - 1)))) )
               ]))

(* what a parser says about a text: the reference raises [Failure] on a
   [\u] escape that is not hex, where the codec returns an error *)
let verdict parse text =
  match parse text with
  | Ok v -> `Ok v
  | Error e -> `Error e
  | exception Failure _ -> `Raised

let error_at e = Scanf.sscanf_opt e "JSON error at byte %d: %[^\n]" (fun at msg -> (at, msg))

(* the value of four hex digits at [i] of [text], else -1 *)
let hex_at text i =
  if i < 0 || i + 4 > String.length text then -1
  else
    let digits = String.sub text i 4 in
    if String.for_all (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false) digits
    then int_of_string ("0x" ^ digits)
    else -1

let escape_at text i = i >= 0 && i + 2 <= String.length text && String.sub text i 2 = "\\u"
let low v = v >= 0xDC00 && v <= 0xDFFF
let high v = v >= 0xD800 && v <= 0xDBFF

(* The codec's deliberate differences from the reference: it refuses
   the [\u] escapes the reference decodes to garbage.  The error must
   name the rule and point at such an escape in the text: digits that
   are not all hex (the reference's [int_of_string] takes ['_']), a low
   surrogate with no high one before it, or a high one followed by an
   escape that is not a low one.  The reference meets the escape later,
   so whatever it says, it says nothing before that offset. *)
let refuses_escape text e reference =
  match error_at e with
  | None -> false
  | Some (at, msg) ->
    (match msg with
    | "bad \\u escape" -> escape_at text (at - 2) && hex_at text at < 0
    | "lone low surrogate" -> escape_at text (at - 2) && low (hex_at text at)
    | "lone high surrogate" ->
      escape_at text (at - 6)
      && high (hex_at text (at - 4))
      && escape_at text at
      && hex_at text (at + 2) >= 0
      && not (low (hex_at text (at + 2)))
    | _ -> false)
    &&
    match reference with
    | `Error f -> ( match error_at f with Some (at', _) -> at' >= at | None -> false)
    | `Ok _ | `Raised -> true

let parses_like_reference text =
  match (verdict Json.parse text, verdict Json_reference.parse text) with
  | `Ok v, `Ok w -> same_json v w
  | `Error e, `Error f when String.equal e f -> true
  | `Error e, reference -> refuses_escape text e reference
  | _ -> false

let prop_json_prints_like_reference =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x150B; 1 |])
    (QCheck.Test.make ~name:"json: to_string = reference, byte for byte" ~count:2000
       (QCheck.make ~print:Json_reference.to_string gen_json) (fun v ->
         String.equal (Json.to_string v) (Json_reference.to_string v)))

(* a printed value, then damaged: a byte replaced, inserted or deleted,
   or the text cut short *)
let gen_text =
  QCheck.Gen.(
    let* text = map Json.to_string gen_json in
    let n = String.length text in
    let byte =
      frequency
        [ (1, char)
        ; (3, oneofl [ '"'; '\\'; 'u'; '-'; '+'; '.'; 'e'; 'E'; '0'; '1'; '9'; ','; ':'; '['; ']'; '{'; '}'; ' '; 'n'; 't'; 'f' ])
        ]
    in
    let* at = int_range 0 n in
    let* c = byte in
    oneof
      [ return text
      ; return (String.sub text 0 at)
      ; return (String.sub text 0 at ^ String.make 1 c ^ String.sub text at (n - at))
      ; (if at < n then
           return (String.sub text 0 at ^ String.make 1 c ^ String.sub text (at + 1) (n - at - 1))
         else return text)
      ; (if at < n then return (String.sub text 0 at ^ String.sub text (at + 1) (n - at - 1))
         else return text)
      ])

let prop_json_parses_like_reference =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x150B; 2 |])
    (QCheck.Test.make ~name:"json: parse = reference on printed and damaged texts"
       ~count:3000 (QCheck.make ~print:String.escaped gen_text) parses_like_reference)

(* number texts over the characters a number may start with, where the
   codec's int fast path and the float fallback divide the work *)
let prop_json_numbers_like_reference =
  let gen =
    QCheck.Gen.(
      let* body = string_size ~gen:(oneofl [ '0'; '0'; '1'; '5'; '9'; '9'; '-'; '+'; '.'; 'e'; 'E' ]) (int_range 0 20) in
      oneofl [ body; "[" ^ body ^ "]"; "[" ^ body ^ ",1]"; {|{"k":|} ^ body ^ "}" ])
  in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x150B; 3 |])
    (QCheck.Test.make ~name:"json: number texts parse as the reference" ~count:3000
       (QCheck.make ~print:String.escaped gen) parses_like_reference)

let test_json_edges_like_reference () =
  List.iter
    (fun text ->
      Alcotest.(check bool) ("parse " ^ String.escaped text) true (parses_like_reference text))
    [ "0"; "-0"; "-00"; "007"; "-007"; "00.5"; "1."; "1e"; "1e+"; "-"; "+1"; ".5"; "-.5"
    ; "999999999999999"; "-999999999999999"; "1000000000000000"; "9007199254740993"
    ; "-9007199254740993"; "123456789012345e0"; "1234567890123456"; "12345678901234567890"
    ; "1e999"; "-1e999"; "[-0,0,-0.0]"; {|"é😀"|}; {|"\uzzzz"|}; {|"\u12"|}
    ; {|"\ud800x"|}; {|"\q"|}; {|"abc|}; {|"ab\|}; "tru"; "nul"; "[1,]"; "{\"a\":1,}"
    ; {|"\ud83d\ude00"|}; {|"\u1_23"|}; {|"\udc00"|}; {|"\ud800\u0041"|}; {|"\udc00|}
    ; {|"\ud800\u00|}; {|["\u12_3", 1e]|} ];
  (* the one printing difference: JSON has no nan or infinity *)
  List.iter
    (fun f ->
      let text = Json.to_string (Json.Arr [ Json.Num f ]) in
      Alcotest.(check string) "non-finite prints as null" "[null]" text;
      Alcotest.(check bool) "and parses back" true (Json.parse text = Ok (Json.Arr [ Json.Null ])))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  Alcotest.(check string) "-0.0 keeps its sign" "-0" (Json.to_string (Json.Num (-0.0)))

(* the [\u] escapes the reference decodes to garbage are refused, each
   with its offset: [int_of_string] took ['_'] for a hex digit, a lone
   low surrogate became the invalid UTF-8 ED B0 80, and a high
   surrogate before a non-surrogate decoded to U+2441 *)
let test_json_refuses_bad_escapes () =
  List.iter
    (fun (text, expected) ->
      match Json.parse text with
      | Ok v -> Alcotest.failf "%s parsed, to %s" text (Json.to_string v)
      | Error e -> Alcotest.(check string) text expected e)
    [ ({|"\u1_23"|}, "JSON error at byte 3: bad \\u escape")
    ; ({|"\udc00"|}, "JSON error at byte 3: lone low surrogate")
    ; ({|"\ud800\u0041"|}, "JSON error at byte 7: lone high surrogate")
    ; ({|{"k":["\ud800\udbff"]}|}, "JSON error at byte 13: lone high surrogate")
    ];
  Alcotest.(check bool) "a surrogate pair decodes" true
    (Json.parse {|"\ud83d\ude00\u00e9"|} = Ok (Json.Str "\xf0\x9f\x98\x80\xc3\xa9"))

(* every committed snapshot reads back and prints to its own bytes *)
let test_json_baselines_roundtrip () =
  let dir = "../bench/baselines" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare
  in
  Alcotest.(check bool) "baselines found" true (List.length files >= 5);
  List.iter
    (fun f ->
      let text = In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all in
      match Json.parse text with
      | Error e -> Alcotest.failf "%s: %s" f e
      | Ok v -> Alcotest.(check string) f text (Json.to_string v ^ "\n"))
    files

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

(* --- the recorder against its reference (obs_reference.ml) --- *)

exception Raised

(* a recording program: spans nest, [Try] catches what [Raise] throws
   through the spans between them *)
type op =
  | Span of string * op list
  | Count of string * int
  | Gauge of string * int
  | Try of op list
  | Raise

let rec op_to_string = function
  | Span (n, b) -> Printf.sprintf "span %s {%s}" n (prog_to_string b)
  | Count (k, v) -> Printf.sprintf "count %s %d" k v
  | Gauge (k, v) -> Printf.sprintf "gauge %s %d" k v
  | Try b -> Printf.sprintf "try {%s}" (prog_to_string b)
  | Raise -> "raise"

and prog_to_string p = String.concat "; " (List.map op_to_string p)

(* few names, so spans re-enter and paths and counters repeat; the
   counter names cover both metrics sections *)
let gen_program =
  let open QCheck.Gen in
  let key = oneofl [ "n"; "m"; "gates"; "cache.x.hit"; "stage.k"; "t_us"; "a.calls" ] in
  let leaf =
    frequency
      [ (4, map2 (fun k v -> Count (k, v)) key (int_range (-3) 9))
      ; (3, map2 (fun k v -> Gauge (k, v)) key (int_range 0 9))
      ; (1, return Raise)
      ]
  in
  sized_size (int_bound 10)
  @@ fix (fun self n ->
         if n = 0 then list_size (int_bound 3) leaf
         else
           list_size (int_range 1 4)
             (frequency
                [ (3, leaf)
                ; ( 4
                  , map2
                      (fun name body -> Span (name, body))
                      (oneofl [ "a"; "b"; "c"; "a.b" ])
                      (self (n / 2)) )
                ; (1, map (fun body -> Try body) (self (n / 2)))
                ]))

(* the three entry points of one recorder *)
type sink =
  { span : string -> (unit -> unit) -> unit
  ; count : string -> int -> unit
  ; gauge : string -> int -> unit
  }

(* every span starts on a clock tick of its own, so both recorders see
   the same start order and no ties *)
let rec tick t0 = if Unix.gettimeofday () = t0 then tick t0

let rec run sink = function
  | Span (name, body) ->
    tick (Unix.gettimeofday ());
    sink.span name (fun () -> List.iter (run sink) body)
  | Count (k, v) -> sink.count k v
  | Gauge (k, v) -> sink.gauge k v
  | Try body -> ( try List.iter (run sink) body with Raised -> ())
  | Raise -> raise Raised

let run_segment sink ops = try List.iter (run sink) ops with Raised -> ()

(* the program in four consecutive parts, taking turns: a thread of
   the calling domain, a pool's worker domain, a second thread, the
   worker domain again *)
let run_split pool ~bind sink prog =
  let n = List.length prog in
  let part k = List.filteri (fun i _ -> i * 4 / max n 1 = k) prog in
  let on_thread ops =
    Thread.join (Thread.create (fun () -> bind (fun () -> run_segment sink ops)) ())
  in
  let on_domain ops =
    Sc_par.Pool.offload pool (fun () -> bind (fun () -> run_segment sink ops))
  in
  on_thread (part 0);
  on_domain (part 1);
  on_thread (part 2);
  on_domain (part 3)

let observed_like_reference pool prog =
  let recorded split =
    let r = R.create () and o = Obs_reference.create () in
    R.enable r;
    Obs_reference.enable o;
    let bind f = Obs.with_recorder r f in
    let sink = { span = Obs.span; count = Obs.count; gauge = Obs.gauge } in
    let reference =
      { span = Obs_reference.span o
      ; count = Obs_reference.count o
      ; gauge = Obs_reference.gauge o
      }
    in
    if split then begin
      run_split pool ~bind sink prog;
      run_split pool ~bind:(fun f -> f ()) reference prog
    end
    else begin
      bind (fun () -> run_segment sink prog);
      run_segment reference prog
    end;
    (r, o)
  in
  let row (x : Obs.row) = (x.rpath, x.rdepth, x.calls, x.rcounters) in
  let event (e : Obs.event) = (e.path, e.depth, e.tid, e.counters) in
  List.for_all
    (fun split ->
      let r, o = recorded split in
      let snap = Sc_metrics.Metrics.capture ~recorder:r ~design:"p" () in
      let qor, runtime = Obs_reference.capture o in
      R.totals r = Obs_reference.totals o
      && List.map row (R.stage_table r) = List.map row (Obs_reference.stage_table o)
      && List.map event (R.events r) = List.map event (Obs_reference.events o)
      && snap.Sc_metrics.Metrics.qor = qor
      && List.map fst snap.Sc_metrics.Metrics.runtime = List.map fst runtime)
    [ false; true ]

let test_recorder_like_reference () =
  let pool = Sc_par.Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Sc_par.Pool.shutdown pool)
    (fun () ->
      QCheck.Test.check_exn ~rand:(Random.State.make [| 0x0B5; 1 |])
        (QCheck.Test.make ~count:2000
           ~name:"recorder = reference on one context and on three taking turns"
           (QCheck.make ~print:prog_to_string gen_program)
           (observed_like_reference pool)))

(* A recorded cold compile updates the recorder per pass and per
   sub-span, never per gate: pdp8's 685 gates once made 1,370 standard
   cell lookups, each a counter update. *)
let test_updates_per_pass () =
  let module P = Sc_pipeline.Pipeline in
  P.disable_cache ();
  P.clear_caches ();
  let r = R.create () in
  R.enable r;
  let (result, log) =
    Obs.with_recorder r (fun () ->
        P.with_log (fun () ->
            Sc_core.Compiler.compile_behavior Sc_core.Designs.pdp8_src))
  in
  let gates =
    match result with
    | Ok (_, circuit) -> (Sc_netlist.Circuit.stats circuit).Sc_netlist.Circuit.gate_total
    | Error d -> Alcotest.fail (Sc_pipeline.Diag.to_string d)
  in
  let passes = List.length log in
  Alcotest.(check bool) "every pass ran" true
    (List.for_all (fun (_, st) -> P.status_to_string st = "ran") log);
  let updates = R.updates r in
  if updates > 16 * passes || updates >= gates / 4 then
    Alcotest.failf "%d recorder updates for %d passes and %d gates" updates
      passes gates

module C = Sc_core.Compiler

(* [k req] with [src]'s validated request primed in the memory cache,
   so that every run of it is an all-hit compile *)
let with_memory_hits src k =
  let module P = Sc_pipeline.Pipeline in
  P.disable_cache ();
  P.clear_caches ();
  P.enable_cache ();
  Fun.protect
    ~finally:(fun () ->
      P.disable_cache ();
      P.clear_caches ())
    (fun () ->
      let req = Result.get_ok (C.validate (C.request C.Isp src)) in
      ignore (C.run req);
      k req)

(* the fewest minor words [f] allocates in [n] runs *)
let least_words n f =
  List.fold_left min infinity
    (List.init n (fun _ ->
         let w0 = Gc.minor_words () in
         f ();
         Gc.minor_words () -. w0))

let recorded req =
  let r = R.create () in
  R.enable r;
  ignore (Obs.with_recorder r (fun () -> C.run req));
  R.disable r;
  r

(* an all-hit compile recorded and captured, as the daemon answers a
   memory hit, allocates a bounded number of words: 7,468 minor words
   on counter before the recorder kept per-context rows *)
let test_recorded_hit_allocation () =
  with_memory_hits Sc_core.Designs.counter_src @@ fun req ->
  (* past a few captures the keys are ranked, as in a daemon *)
  let least =
    least_words 20 (fun () ->
        ignore (Sc_metrics.Metrics.capture ~recorder:(recorded req) ~design:"counter" ()))
  in
  if least > 5500. then
    Alcotest.failf "a recorded hit and its capture allocated %.0f minor words" least

(* recording a memory hit of the modular [system] allocates a bounded
   number of words beyond the same hit unrecorded: 9,215 when each
   module's totals were sorted and each QoR key's "module.NAME.KEY"
   concatenated on every request *)
let test_recorded_modular_hit_allocation () =
  with_memory_hits Sc_core.Designs.system_src @@ fun req ->
  let extra =
    least_words 10 (fun () -> ignore (recorded req))
    -. least_words 10 (fun () -> ignore (C.run req))
  in
  if extra > 8000. then
    Alcotest.failf "recording a system hit allocated %.0f extra minor words" extra

let suite =
  [ Alcotest.test_case "disabled mode is a no-op" `Quick test_disabled_noop
  ; Alcotest.test_case "span nesting" `Quick test_span_nesting
  ; Alcotest.test_case "counter aggregation" `Quick test_counter_aggregation
  ; Alcotest.test_case "exception safety" `Quick test_exception_safety
  ; Alcotest.test_case "stage table" `Quick test_stage_table
  ; Alcotest.test_case "chrome trace roundtrip" `Quick test_trace_roundtrip
  ; Alcotest.test_case "json parser" `Quick test_json_parser
  ; prop_json_prints_like_reference
  ; prop_json_parses_like_reference
  ; prop_json_numbers_like_reference
  ; Alcotest.test_case "json edge cases parse as the reference" `Quick
      test_json_edges_like_reference
  ; Alcotest.test_case "json refuses malformed \\u escapes" `Quick
      test_json_refuses_bad_escapes
  ; Alcotest.test_case "json baselines re-print to their bytes" `Quick
      test_json_baselines_roundtrip
  ; Alcotest.test_case "compiler stages observed" `Quick test_compiler_stages
  ; Alcotest.test_case "recorder isolation" `Quick test_recorder_isolation
  ; Alcotest.test_case "ambient dispatch across threads" `Quick
      test_ambient_dispatch
  ; Alcotest.test_case "route records pins and channel sub-spans" `Quick
      test_route_subspans
  ; Alcotest.test_case "recorder = reference recorder on random programs"
      `Quick test_recorder_like_reference
  ; Alcotest.test_case "a cold compile updates the recorder per pass" `Quick
      test_updates_per_pass
  ; Alcotest.test_case "a recorded hit's allocation is bounded" `Quick
      test_recorded_hit_allocation
  ; Alcotest.test_case "a recorded modular hit's allocation is bounded" `Quick
      test_recorded_modular_hit_allocation
  ]
