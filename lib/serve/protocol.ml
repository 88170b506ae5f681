module Json = Sc_obs.Json

(* --- framing --- *)

let max_frame = 1 lsl 26 (* 64 MiB *)

let encode_frame payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.blit_string payload 0 b 4 n;
  Bytes.to_string b

let write_frame fd payload =
  let data = Bytes.of_string (encode_frame payload) in
  let len = Bytes.length data in
  let off = ref 0 in
  while !off < len do
    let n = Unix.write fd data !off (len - !off) in
    if n = 0 then raise (Unix.Unix_error (Unix.EPIPE, "write", ""));
    off := !off + n
  done

(* read exactly [n] bytes; [`Eof got] when the stream ends first *)
let read_exact fd n =
  let b = Bytes.create n in
  let off = ref 0 in
  let eof = ref false in
  while (not !eof) && !off < n do
    match Unix.read fd b !off (n - !off) with
    | 0 -> eof := true
    | k -> off := !off + k
  done;
  if !off = n then `Bytes b else `Eof !off

let read_frame fd =
  match read_exact fd 4 with
  | `Eof 0 -> Ok None (* clean close between frames *)
  | `Eof _ -> Error "truncated frame header"
  | `Bytes hdr -> (
    let len =
      (Char.code (Bytes.get hdr 0) lsl 24)
      lor (Char.code (Bytes.get hdr 1) lsl 16)
      lor (Char.code (Bytes.get hdr 2) lsl 8)
      lor Char.code (Bytes.get hdr 3)
    in
    if len > max_frame then
      Error (Printf.sprintf "oversized frame: %d bytes (max %d)" len max_frame)
    else
      match read_exact fd len with
      | `Bytes b -> Ok (Some (Bytes.to_string b))
      | `Eof got ->
        Error (Printf.sprintf "truncated frame: got %d of %d bytes" got len))
  | exception Unix.Unix_error (e, _, _) ->
    Error ("read: " ^ Unix.error_message e)

(* --- requests --- *)

type compile_spec =
  { design : string
  ; source : string
  ; style : string
  ; restarts : int
  ; certify : bool
  }

type request =
  | Compile of compile_spec
  | Equiv of { a : string; b : string; k : int }
  | Stats
  | Shutdown

type compiled =
  { snapshot : Json.t
  ; cif_bytes : int
  ; gates : int
  ; flipflops : int
  ; transistors : int
  ; area : int
  ; drc_violations : int
  ; passes : (string * string) list
  }

type stats_payload =
  { counters : (string * int) list
  ; uptime_s : int option  (* absent on pre-telemetry daemons *)
  ; server_version : string option  (* ditto *)
  ; verbs : (string * int) list  (* per-verb request counts; may be empty *)
  }

type response =
  | Compiled of compiled
  | Equiv_verdict of { equivalent : bool; detail : string }
  | Stats_reply of stats_payload
  | Bye
  | Error_reply of { stage : string; message : string }

(* --- the compile spec as a compile request: the one mapping between
   the wire's style and a request's kind and style; the record has no
   field for an entry cell, its arguments or a fault --- *)

module C = Sc_core.Compiler

let styles =
  [ ("gates", (C.Isp, None)); ("pla", (C.Isp, Some C.Pla_control))
  ; ("verilog", (C.Verilog, None)); ("layout", (C.Layout, None))
  ]

let request_of_spec s =
  match List.assoc_opt s.style styles with
  | Some (kind, style) ->
    Ok
      { (C.request kind s.source) with
        style
      ; restarts = s.restarts
      ; certify = s.certify
      }
  | None ->
    Error
      (Sc_pipeline.Diag.v ~stage:"serve"
         (Printf.sprintf "unknown style %S (expected %s)" s.style
            (String.concat ", "
               (List.map (fun (n, _) -> Printf.sprintf "%S" n) styles))))

let spec_of_request ~design (r : C.request) =
  let pla = if r.style = Some C.Pla_control then r.style else None in
  let ks = (r.kind, if r.kind = C.Isp then pla else None) in
  let style = fst (List.find (fun (_, ks') -> ks' = ks) styles) in
  { design
  ; source = r.source
  ; style
  ; restarts = r.restarts
  ; certify = r.certify
  }

(* --- encoding --- *)

let num i = Json.Num (float_of_int i)

let spec_fields s =
  [ ("design", Json.Str s.design)
  ; ("source", Json.Str s.source)
  ; ("style", Json.Str s.style)
  ; ("restarts", num s.restarts)
  ; ("certify", Json.Bool s.certify)
  ]

let json_of_request = function
  | Compile s -> Json.Obj (("t", Json.Str "compile") :: spec_fields s)
  | Equiv { a; b; k } ->
    Json.Obj
      [ ("t", Json.Str "equiv"); ("a", Json.Str a); ("b", Json.Str b)
      ; ("k", num k)
      ]
  | Stats -> Json.Obj [ ("t", Json.Str "stats") ]
  | Shutdown -> Json.Obj [ ("t", Json.Str "shutdown") ]

let json_of_response = function
  | Compiled c ->
    Json.Obj
      [ ("t", Json.Str "compiled")
      ; ("snapshot", c.snapshot)
      ; ("cif_bytes", num c.cif_bytes)
      ; ("gates", num c.gates)
      ; ("flipflops", num c.flipflops)
      ; ("transistors", num c.transistors)
      ; ("area", num c.area)
      ; ("drc_violations", num c.drc_violations)
      ; ( "passes"
        , Json.Arr
            (List.map
               (fun (name, st) ->
                 Json.Obj [ ("pass", Json.Str name); ("status", Json.Str st) ])
               c.passes) )
      ]
  | Equiv_verdict { equivalent; detail } ->
    Json.Obj
      [ ("t", Json.Str "equiv"); ("equivalent", Json.Bool equivalent)
      ; ("detail", Json.Str detail)
      ]
  | Stats_reply { counters; uptime_s; server_version; verbs } ->
    (* optional fields are omitted when absent, and the decoder
       tolerates their absence — same compatibility discipline as the
       [certify] spec field *)
    let ints kvs = Json.Obj (List.map (fun (k, v) -> (k, num v)) kvs) in
    Json.Obj
      ([ ("t", Json.Str "stats"); ("counters", ints counters) ]
      @ (match uptime_s with Some u -> [ ("uptime_s", num u) ] | None -> [])
      @ (match server_version with
        | Some v -> [ ("version", Json.Str v) ]
        | None -> [])
      @ match verbs with [] -> [] | vs -> [ ("verbs", ints vs) ])
  | Bye -> Json.Obj [ ("t", Json.Str "bye") ]
  | Error_reply { stage; message } ->
    Json.Obj
      [ ("t", Json.Str "error"); ("stage", Json.Str stage)
      ; ("message", Json.Str message)
      ]

(* --- decoding --- *)

let ( let* ) = Result.bind

let str_field name j =
  match Json.member name j with
  | Some (Json.Str s) -> Ok s
  | _ -> Error (Printf.sprintf "missing or non-string field %S" name)

let int_field name j =
  match Json.member name j with
  | Some (Json.Num f) when Float.is_integer f -> Ok (int_of_float f)
  | _ -> Error (Printf.sprintf "missing or non-integer field %S" name)

let bool_field name j =
  match Json.member name j with
  | Some (Json.Bool b) -> Ok b
  | _ -> Error (Printf.sprintf "missing or non-boolean field %S" name)

let spec_of_json j =
  let* design = str_field "design" j in
  let* source = str_field "source" j in
  let* style = str_field "style" j in
  let* restarts = int_field "restarts" j in
  (* absent on pre-certify clients: default false, stay compatible *)
  let* certify =
    match Json.member "certify" j with
    | None -> Ok false
    | Some (Json.Bool b) -> Ok b
    | Some _ -> Error "non-boolean field \"certify\""
  in
  Ok { design; source; style; restarts; certify }

let request_of_json j =
  let* tag = str_field "t" j in
  match tag with
  | "compile" ->
    let* s = spec_of_json j in
    Ok (Compile s)
  | "equiv" ->
    let* a = str_field "a" j in
    let* b = str_field "b" j in
    let* k = int_field "k" j in
    Ok (Equiv { a; b; k })
  | "stats" -> Ok Stats
  | "shutdown" -> Ok Shutdown
  | t -> Error (Printf.sprintf "unknown request tag %S" t)

let response_of_json j =
  let* tag = str_field "t" j in
  match tag with
  | "compiled" ->
    let* snapshot =
      match Json.member "snapshot" j with
      | Some s -> Ok s
      | None -> Error "missing field \"snapshot\""
    in
    let* cif_bytes = int_field "cif_bytes" j in
    let* gates = int_field "gates" j in
    let* flipflops = int_field "flipflops" j in
    let* transistors = int_field "transistors" j in
    let* area = int_field "area" j in
    let* drc_violations = int_field "drc_violations" j in
    let* passes =
      match Json.member "passes" j with
      | Some (Json.Arr entries) ->
        List.fold_left
          (fun acc e ->
            let* acc = acc in
            let* name = str_field "pass" e in
            let* st = str_field "status" e in
            Ok ((name, st) :: acc))
          (Ok []) entries
        |> Result.map List.rev
      | _ -> Error "missing or non-array field \"passes\""
    in
    Ok
      (Compiled
         { snapshot; cif_bytes; gates; flipflops; transistors; area
         ; drc_violations; passes
         })
  | "equiv" ->
    let* equivalent = bool_field "equivalent" j in
    let* detail = str_field "detail" j in
    Ok (Equiv_verdict { equivalent; detail })
  | "stats" ->
    let ints name = function
      | Some (Json.Obj kvs) ->
        List.fold_left
          (fun acc (k, v) ->
            let* acc = acc in
            match v with
            | Json.Num f when Float.is_integer f ->
              Ok ((k, int_of_float f) :: acc)
            | _ -> Error (Printf.sprintf "non-integer %s %S" name k))
          (Ok []) kvs
        |> Result.map List.rev
      | Some _ -> Error (Printf.sprintf "non-object field %S" name)
      | None -> Error (Printf.sprintf "missing field %S" name)
    in
    let* counters = ints "counters" (Json.member "counters" j) in
    (* the three telemetry fields are absent on pre-telemetry daemons:
       decode to None/[] rather than failing *)
    let* uptime_s =
      match Json.member "uptime_s" j with
      | None -> Ok None
      | Some (Json.Num f) when Float.is_integer f -> Ok (Some (int_of_float f))
      | Some _ -> Error "non-integer field \"uptime_s\""
    in
    let* server_version =
      match Json.member "version" j with
      | None -> Ok None
      | Some (Json.Str v) -> Ok (Some v)
      | Some _ -> Error "non-string field \"version\""
    in
    let* verbs =
      match Json.member "verbs" j with
      | None -> Ok []
      | present -> ints "verbs" present
    in
    Ok (Stats_reply { counters; uptime_s; server_version; verbs })
  | "bye" -> Ok Bye
  | "error" ->
    let* stage = str_field "stage" j in
    let* message = str_field "message" j in
    Ok (Error_reply { stage; message })
  | t -> Error (Printf.sprintf "unknown response tag %S" t)

let string_of_request r = Json.to_string (json_of_request r)
let string_of_response r = Json.to_string (json_of_response r)

let parse_then decode s =
  match Json.parse s with
  | Error e -> Error ("malformed JSON: " ^ e)
  | Ok j -> decode j

let request_of_string s = parse_then request_of_json s
let response_of_string s = parse_then response_of_json s
