module Json = Sc_obs.Json
module Obs = Sc_obs.Obs

let schema = "scc-metrics"
let schema_version = 1

type snapshot =
  { version : int
  ; design : string
  ; qor : (string * float) list
  ; runtime : (string * float) list
  }

(* --- section classification --- *)

(* [s] holds [p] at offset [o] from its byte [i] on: no substring, no
   closure *)
let rec holds_at s o p i =
  i = String.length p
  || (String.unsafe_get s (o + i) = String.unsafe_get p i && holds_at s o p (i + 1))

let has_prefix p s = String.length s >= String.length p && holds_at s 0 p 0

let has_suffix suf s =
  let o = String.length s - String.length suf in
  o >= 0 && holds_at s o suf 0

let is_runtime_key k =
  has_prefix "stage." k || has_prefix "cache." k || has_prefix "pool." k
  || has_prefix "pipeline." k || has_suffix ".tasks" k
  || has_suffix ".calls" k
  || has_suffix "_us" k (* wall-clock counters, e.g. equiv.certificate_us *)

(* --- capture --- *)

module Key = Obs.Key

let round_us ms = Float.round (ms *. 1000.0)

let by_key (a, _) (b, _) = String.compare a b

(* a counter's section, decided once per key for the process *)
let runtime_key = Key.memo (fun k -> is_runtime_key (Key.text k))

(* a path's three runtime keys, named once per process *)
let stage_keys =
  Key.memo (fun path ->
      let base = "stage." ^ Key.text path in
      ( Key.intern (base ^ ".total_us")
      , Key.intern (base ^ ".self_us")
      , Key.intern (base ^ ".calls") ))

let capture ~recorder:r ~design () =
  let qor, runtime =
    Obs.Recorder.fold_totals r
      (fun k v (q, rt) ->
        let e = (k, float_of_int v) in
        if runtime_key k then (q, e :: rt) else (e :: q, rt))
      ([], [])
  in
  let runtime =
    Obs.Recorder.fold_stages r
      (fun path ~calls ~total_ms ~self_ms acc ->
        let total, self, ncalls = stage_keys path in
        (total, round_us total_ms)
        :: (self, round_us self_ms)
        :: (ncalls, float_of_int calls)
        :: acc)
      runtime
  in
  { version = schema_version
  ; design
  ; qor = Key.sorted qor
  ; runtime = Key.sorted runtime
  }

(* --- JSON --- *)

let section_to_json kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) kvs)

let to_json s =
  Json.Obj
    [ ("schema", Json.Str schema)
    ; ("version", Json.Num (float_of_int s.version))
    ; ("design", Json.Str s.design)
    ; ("qor", section_to_json s.qor)
    ; ("runtime", section_to_json s.runtime)
    ]

let section_of_json name j =
  match j with
  | None -> Error (Printf.sprintf "missing %S section" name)
  | Some (Json.Obj fields) ->
    let rec go acc = function
      | [] -> Ok (List.sort by_key (List.rev acc))
      | (k, Json.Num v) :: rest -> go ((k, v) :: acc) rest
      | (k, _) :: _ -> Error (Printf.sprintf "%s.%s: expected a number" name k)
    in
    go [] fields
  | Some _ -> Error (Printf.sprintf "%S: expected an object" name)

let of_json j =
  match j with
  | Json.Obj _ -> (
    (match Json.member "schema" j with
    | Some (Json.Str s) when s = schema -> Ok ()
    | Some (Json.Str s) -> Error (Printf.sprintf "schema %S is not %S" s schema)
    | _ -> Error "missing \"schema\" marker")
    |> fun ok ->
    match ok with
    | Error _ as e -> e
    | Ok () -> (
      match (Json.member "version" j, Json.member "design" j) with
      | Some (Json.Num v), Some (Json.Str design) ->
        let version = int_of_float v in
        if version > schema_version then
          Error (Printf.sprintf "snapshot version %d is newer than supported %d" version schema_version)
        else (
          match
            ( section_of_json "qor" (Json.member "qor" j)
            , section_of_json "runtime" (Json.member "runtime" j) )
          with
          | Ok qor, Ok runtime -> Ok { version; design; qor; runtime }
          | (Error _ as e), _ | _, (Error _ as e) -> e)
      | _ -> Error "missing \"version\" or \"design\""))
  | _ -> Error "expected a JSON object"

let to_string s = Json.to_string (to_json s)

let of_string text =
  match Json.parse text with
  | Error e -> Error e
  | Ok j -> of_json j

let qor_string s = Json.to_string (section_to_json s.qor)

let write path s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string s);
      output_char oc '\n')

let read path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> ( match of_string text with Ok s -> Ok s | Error e -> Error (path ^ ": " ^ e))
  | exception Sys_error e -> Error e

(* --- diffing --- *)

type direction = Lower_better | Higher_better | Informational

let direction_of_key k =
  if
    k = "pool.width" || has_suffix ".calls" k || has_suffix ".tasks" k
    || k = "equiv.certificate.nodes"
  then Informational
  else if
    k = "equiv.certified_passes" || k = "equiv.certificate.cones"
    || (has_prefix "cache." k && has_suffix "hit" k)
  then Higher_better
  else Lower_better

type threshold = { rel : float; abs : float }

(* a pattern's fields are optional so "stage.*" can tighten [rel] while
   inheriting the class default for [abs] *)
type partial = { prel : float option; pabs : float option }

type thresholds = (string * partial) list

let default_thresholds = []

let qor_default = { rel = 0.0; abs = 0.0 }
let runtime_default = { rel = 0.25; abs = 20_000.0 }

let threshold_for ts key =
  let fallback = if is_runtime_key key then runtime_default else qor_default in
  let matching =
    List.filter_map
      (fun (pat, p) ->
        if pat = key then Some (max_int, p)
        else if has_suffix "*" pat then begin
          let prefix = String.sub pat 0 (String.length pat - 1) in
          if has_prefix prefix key then Some (String.length prefix, p) else None
        end
        else None)
      ts
  in
  match List.sort (fun (a, _) (b, _) -> Int.compare b a) matching with
  | [] -> fallback
  | (_, p) :: _ ->
    { rel = Option.value ~default:fallback.rel p.prel
    ; abs = Option.value ~default:fallback.abs p.pabs
    }

let thresholds_of_string text =
  match Json.parse text with
  | Error e -> Error e
  | Ok (Json.Obj fields) ->
    let entry (pat, j) =
      match j with
      | Json.Obj _ ->
        let num name =
          match Json.member name j with
          | Some (Json.Num v) -> Ok (Some v)
          | None -> Ok None
          | Some _ -> Error (Printf.sprintf "%s.%s: expected a number" pat name)
        in
        (match (num "rel", num "abs") with
        | Ok prel, Ok pabs -> Ok (pat, { prel; pabs })
        | (Error _ as e), _ | _, (Error _ as e) -> e)
      | _ -> Error (Printf.sprintf "%s: expected {\"rel\": r, \"abs\": a}" pat)
    in
    List.fold_left
      (fun acc f ->
        match (acc, entry f) with
        | Ok l, Ok e -> Ok (l @ [ e ])
        | (Error _ as e), _ | _, (Error _ as e) -> e)
      (Ok []) fields
  | Ok _ -> Error "thresholds: expected a JSON object"

type verdict = Improved | Neutral | Regressed

type delta =
  { key : string
  ; runtime : bool
  ; base : float option
  ; cur : float option
  ; verdict : verdict
  }

type report =
  { base_design : string
  ; cur_design : string
  ; deltas : delta list
  }

let classify ts key b c =
  let d = c -. b in
  if d = 0.0 then Neutral
  else
    let t = threshold_for ts key in
    if
      Float.abs d <= t.abs
      || (b <> 0.0 && Float.abs d /. Float.abs b <= t.rel)
    then Neutral
    else
      match direction_of_key key with
      | Informational -> Neutral
      | Lower_better -> if d > 0.0 then Regressed else Improved
      | Higher_better -> if d > 0.0 then Improved else Regressed

let diff ?(thresholds = default_thresholds) base cur =
  let section runtime bl cl =
    let keys =
      List.sort_uniq String.compare (List.map fst bl @ List.map fst cl)
    in
    List.map
      (fun key ->
        let b = List.assoc_opt key bl and c = List.assoc_opt key cl in
        let verdict =
          match (b, c) with
          | Some b, Some c -> classify thresholds key b c
          | _ -> Neutral (* added or removed: informational *)
        in
        { key; runtime; base = b; cur = c; verdict })
      keys
  in
  { base_design = base.design
  ; cur_design = cur.design
  ; deltas =
      section false base.qor cur.qor @ section true base.runtime cur.runtime
  }

let regressions ?(runtime = false) r =
  List.length
    (List.filter
       (fun d -> d.verdict = Regressed && ((not d.runtime) || runtime))
       r.deltas)

let gate ?runtime r = regressions ?runtime r > 0

(* --- rendering --- *)

let pp_value ppf key v =
  if has_suffix "_us" key then Format.fprintf ppf "%12.2f ms" (v /. 1000.0)
  else Format.fprintf ppf "%12.0f   " v

let pp_snapshot ppf s =
  Format.fprintf ppf "design %s (%s v%d)@." s.design schema s.version;
  let section title kvs =
    if kvs <> [] then begin
      Format.fprintf ppf "@.%s@." title;
      List.iter
        (fun (k, v) -> Format.fprintf ppf "  %-34s %a@." k (fun ppf -> pp_value ppf k) v)
        kvs
    end
  in
  section "QoR (deterministic)" s.qor;
  section "runtime (volatile)" s.runtime

let verdict_tag = function
  | Improved -> "improved"
  | Neutral -> "neutral"
  | Regressed -> "REGRESSED"

let pp_report ppf r =
  if r.base_design <> r.cur_design then
    Format.fprintf ppf "note: comparing design %s against %s@." r.base_design
      r.cur_design;
  let changed =
    List.filter (fun d -> d.base <> d.cur) r.deltas
  in
  if changed = [] then Format.fprintf ppf "no metric changed@."
  else begin
    Format.fprintf ppf "%-10s %-34s %12s %12s %10s@." "verdict" "metric"
      "baseline" "current" "delta";
    List.iter
      (fun d ->
        let num = function
          | Some v ->
            if has_suffix "_us" d.key then Printf.sprintf "%.2fms" (v /. 1000.0)
            else Printf.sprintf "%.0f" v
          | None -> "-"
        in
        let delta =
          match (d.base, d.cur) with
          | Some b, Some c ->
            let pct =
              if b <> 0.0 then Printf.sprintf " (%+.1f%%)" (100.0 *. (c -. b) /. Float.abs b)
              else ""
            in
            Printf.sprintf "%+.0f%s" (c -. b) pct
          | None, Some _ -> "added"
          | Some _, None -> "removed"
          | None, None -> "-"
        in
        Format.fprintf ppf "%-10s %-34s %12s %12s %10s@."
          (verdict_tag d.verdict) d.key (num d.base) (num d.cur) delta)
      changed
  end;
  let count section v =
    List.length
      (List.filter (fun d -> d.runtime = section && d.verdict = v) r.deltas)
  in
  Format.fprintf ppf
    "qor: %d improved, %d regressed; runtime: %d improved, %d regressed@."
    (count false Improved) (count false Regressed) (count true Improved)
    (count true Regressed)
