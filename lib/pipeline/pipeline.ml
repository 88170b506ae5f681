module Cache = Sc_cache.Cache
module Obs = Sc_obs.Obs

type 'a staged =
  { value : 'a
  ; key : string
  }

let value s = s.value
let key s = s.key

let source text = { value = text; key = Cache.digest ("source\x00" ^ text) }

let inject ~tag ~repr v =
  { value = v; key = Cache.digest (tag ^ "\x00" ^ repr) }

let map f s = { value = f s.value; key = s.key }

(* --- global cache configuration --- *)

(* one store per pass, created lazily against the configuration that is
   current when the pass first runs; a dir change re-homes stores on
   their next use *)
type config =
  { mutable cdir : string option
  ; mutable ccap : int
  ; mutable cdisk_cap : int option
  ; mutable cenabled : bool
  }

let config =
  { cdir = None
  ; ccap = 256
  ; cdisk_cap = None
  ; cenabled = false
  }

(* --- translation certificates --- *)

type cert_summary =
  { cert_cones : int
  ; cert_nodes : int
  }

type cert_result =
  | Certified of cert_summary
  | Refuted of string

type ('a, 'b) pass =
  { name : string
  ; version : int
  ; f : 'a -> ('b, Diag.t) result
  ; replay : ('a -> 'b -> unit) option
  ; certify : ('a -> 'b -> cert_result) option
  ; plock : Mutex.t
    (* guards [store] and [cert_store]: daemon threads race the lazy
       store creation below and would otherwise clobber each other's
       [Cache.t] (losing stats and doubling memory) *)
  ; mutable store : (string option * 'b Cache.t) option
  ; mutable cert_store : (string option * cert_summary Cache.t) option
  }

(* existentially-packed view of each pass for stats/clear *)
type registered =
  { rname : string
  ; rstats : unit -> Cache.stats option
  ; rcert_stats : unit -> Cache.stats option
  ; rclear : unit -> unit
  }

let registry : registered list ref = ref []
let reg_lock = Mutex.create ()

let register ?(version = 1) ?replay ?certify ~name f =
  let pass =
    { name; version; f; replay; certify
    ; plock = Mutex.create ()
    ; store = None
    ; cert_store = None
    }
  in
  let entry =
    { rname = name
    ; rstats =
        (fun () ->
          Mutex.protect pass.plock (fun () ->
              Option.map (fun (_, c) -> Cache.stats c) pass.store))
    ; rcert_stats =
        (fun () ->
          Mutex.protect pass.plock (fun () ->
              Option.map (fun (_, c) -> Cache.stats c) pass.cert_store))
    ; rclear =
        (fun () ->
          Mutex.protect pass.plock (fun () ->
              pass.store <- None;
              pass.cert_store <- None))
    }
  in
  Mutex.protect reg_lock (fun () -> registry := entry :: !registry);
  pass

let enable_cache ?(capacity = 256) ?disk_capacity ?dir () =
  config.cdir <- dir;
  config.ccap <- capacity;
  config.cdisk_cap <- disk_capacity;
  config.cenabled <- true

let disable_cache () = config.cenabled <- false

let clear_caches () =
  Mutex.protect reg_lock (fun () -> List.iter (fun r -> r.rclear ()) !registry)

let cache_stats () =
  Mutex.protect reg_lock (fun () ->
      List.fold_left
        (fun acc r ->
          let acc =
            match r.rcert_stats () with
            | Some s -> (r.rname ^ ".cert", s) :: acc
            | None -> acc
          in
          match r.rstats () with
          | Some s -> (r.rname, s) :: acc
          | None -> acc)
        [] !registry)

let store_for pass =
  if not config.cenabled then None
  else
    Mutex.protect pass.plock (fun () ->
        match pass.store with
        | Some (dir, c) when dir = config.cdir -> Some c
        | _ ->
          let c =
            Cache.create ~capacity:config.ccap ?disk_capacity:config.cdisk_cap
              ?dir:config.cdir ~name:pass.name ()
          in
          pass.store <- Some (config.cdir, c);
          Some c)

let cert_store_for pass =
  if not config.cenabled then None
  else
    Mutex.protect pass.plock (fun () ->
        match pass.cert_store with
        | Some (dir, c) when dir = config.cdir -> Some c
        | _ ->
          let c =
            Cache.create ~capacity:config.ccap ?disk_capacity:config.cdisk_cap
              ?dir:config.cdir ~name:(pass.name ^ ".cert") ()
          in
          pass.cert_store <- Some (config.cdir, c);
          Some c)

(* --- run log --- *)

type status = Ran | Hit | Disk_hit | Failed

let status_to_string = function
  | Ran -> "ran"
  | Hit -> "hit (memory)"
  | Disk_hit -> "hit (disk)"
  | Failed -> "failed"

let status_key = function
  | Ran -> "ran"
  | Hit -> "hit"
  | Disk_hit -> "disk_hit"
  | Failed -> "failed"

(* --- the run context ---

   What a compile decides for itself — whether to certify, and where
   its pass outcomes are journaled — is one {!Sc_obs.Scope} key, bound
   by [with_certify] / [with_log] for the extent of a function.  Pool
   tasks run in their submitter's scope, so a journal can be appended
   to from several domains at once: it carries its own lock. *)
type journal =
  { jlock : Mutex.t
  ; mutable entries : (string * status) list  (* newest first *)
  }

type context =
  { certify : bool
  ; journal : journal option
  }

let context = Sc_obs.Scope.key { certify = false; journal = None }

let with_certify on f =
  Sc_obs.Scope.with_ context { (Sc_obs.Scope.get context) with certify = on } f

let certify_enabled () = (Sc_obs.Scope.get context).certify

let with_log f =
  let j = { jlock = Mutex.create (); entries = [] } in
  let r =
    Sc_obs.Scope.with_ context
      { (Sc_obs.Scope.get context) with journal = Some j }
      f
  in
  (r, List.rev j.entries)

let append_log entries =
  match (Sc_obs.Scope.get context).journal with
  | Some j ->
    Mutex.protect j.jlock (fun () ->
        j.entries <- List.rev_append entries j.entries)
  | None -> ()

let note_status name st =
  append_log [ (name, st) ];
  Obs.count ("pipeline." ^ name ^ "." ^ status_key st) 1

let pp_explain ppf entries =
  List.iter
    (fun (name, st) ->
      Format.fprintf ppf "explain: %-10s %s@." name (status_to_string st))
    entries

(* --- the manager --- *)

(* Certificate telemetry is emitted here — from the summary, on the
   fresh-check and cert-hit paths alike — never by the hooks, so warm
   QoR snapshots stay byte-identical to cold ones. *)
let emit_certificate name s us =
  Obs.count "equiv.certified_passes" 1;
  Obs.count "equiv.certificate.cones" s.cert_cones;
  Obs.count "equiv.certificate.nodes" s.cert_nodes;
  Obs.count "equiv.certificate_us" us;
  Obs.count ("pipeline." ^ name ^ ".certified") 1

let run ?(param = "") pass input =
  let out_key =
    Cache.digest
      (pass.name ^ "#" ^ string_of_int pass.version ^ "|" ^ param ^ "|"
     ^ input.key)
  in
  let exec () =
    Obs.span pass.name (fun () ->
        match pass.f input.value with
        | r -> r
        | exception Diag.Error d -> Error d
        | exception e -> Error (Diag.of_exn ~stage:pass.name e))
  in
  let replay v =
    if Obs.enabled () then
      Obs.span pass.name (fun () ->
          match pass.replay with None -> () | Some g -> g input.value v)
  in
  let certification v =
    match pass.certify with
    | Some check when certify_enabled () ->
      let t0 = Unix.gettimeofday () in
      let finish s =
        let us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
        emit_certificate pass.name s us;
        Ok ()
      in
      let fresh () =
        match Obs.span "certify" (fun () -> check input.value v) with
        | Certified s -> Ok s
        | Refuted msg ->
          Error
            (Diag.v ~stage:pass.name ("translation certificate refused: " ^ msg))
        | exception Diag.Error d -> Error d
        | exception e -> Error (Diag.of_exn ~stage:pass.name e)
      in
      let refused d =
        Obs.count ("pipeline." ^ pass.name ^ ".cert_failed") 1;
        Error d
      in
      (match cert_store_for pass with
       | None -> (
         match fresh () with Ok s -> finish s | Error d -> refused d)
       | Some cstore -> (
         match Cache.lookup cstore out_key with
         | `Memory s | `Disk s -> finish s
         | `Absent -> (
           match fresh () with
           | Ok s ->
             Cache.add cstore out_key s;
             finish s
           | Error d -> refused d)))
    | _ -> Ok ()
  in
  let ok st v =
    note_status pass.name st;
    Ok { value = v; key = out_key }
  in
  let failed d =
    note_status pass.name Failed;
    Error d
  in
  match store_for pass with
  | None -> (
    match exec () with
    | Ok v -> (
      match certification v with Ok () -> ok Ran v | Error d -> failed d)
    | Error d -> failed d)
  | Some cache -> (
    match Cache.lookup cache out_key with
    | `Memory v -> (
      match certification v with
      | Ok () ->
        replay v;
        ok Hit v
      | Error d -> failed d)
    | `Disk v -> (
      match certification v with
      | Ok () ->
        replay v;
        ok Disk_hit v
      | Error d -> failed d)
    | `Absent -> (
      match exec () with
      | Ok v -> (
        match certification v with
        | Ok () ->
          Cache.add cache out_key v;
          ok Ran v
        | Error d -> failed d)
      | Error d -> failed d))
