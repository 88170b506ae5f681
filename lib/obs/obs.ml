(* Recorder instances.  A [Recorder.t] carries its own span stacks,
   counters, epoch and enabled flag; [with_recorder] binds one in the
   calling context's {!Scope}, and the instrumentation entry points
   record into whichever recorder is bound there — or do nothing.

   Everything below the [on] check is only reachable when recording, so
   the cost of a span with no enabled recorder is one scope lookup and
   a branch (plus the closure call the caller already paid for).

   Concurrency: a recorder keys its span stacks by (domain id, thread
   id), so spans opened on an [Sc_par] worker domain — or on another
   systhread of the same domain — nest within that execution context
   only, and a context's first span is top-level on its own [tid]
   track.  The completed-event list and the global counters are shared
   per recorder and guarded by its mutex; frame-local counter bumps
   touch only the context's own open frame and need no lock. *)

type event =
  { path : string
  ; name : string
  ; depth : int
  ; tid : int
  ; start_us : float
  ; dur_us : float
  ; self_us : float
  ; counters : (string * int) list
  }

type frame =
  { fname : string
  ; fpath : string
  ; fdepth : int
  ; fstart : float
  ; mutable fcounters : (string * int) list  (* reverse insertion order *)
  ; mutable fchildren : float  (* seconds spent in completed children *)
  }

type row =
  { rpath : string
  ; rdepth : int
  ; calls : int
  ; total_ms : float
  ; self_ms : float
  ; rcounters : (string * int) list
  }

module Recorder = struct
  type t =
    { mutable on : bool
    ; mutable epoch : float
    ; lock : Mutex.t
    ; mutable finished : event list  (* reverse completion order *)
    ; globals : (string, int) Hashtbl.t
    ; stacks : (int * int, frame list ref) Hashtbl.t
      (* keyed by (domain id, thread id): each execution context owns
         one stack.  Entries persist for the recorder's life; a handful
         of stale keys is cheaper than precise cleanup on every span
         exit. *)
    }

  let create () =
    { on = false
    ; epoch = 0.0
    ; lock = Mutex.create ()
    ; finished = []
    ; globals = Hashtbl.create 32
    ; stacks = Hashtbl.create 8
    }

  let locked t f = Mutex.protect t.lock f

  let stack t =
    let k = Scope.context () in
    locked t (fun () ->
        match Hashtbl.find_opt t.stacks k with
        | Some r -> r
        | None ->
          let r = ref [] in
          Hashtbl.add t.stacks k r;
          r)

  let enable t =
    if t.epoch = 0.0 then t.epoch <- Unix.gettimeofday ();
    t.on <- true

  let disable t = t.on <- false

  let span t name f =
    if not t.on then f ()
    else begin
      let stack = stack t in
      match !stack with
      | top :: _ when top.fname = name ->
        (* re-entrant: a span opened inside a same-named span merges with
           it, so a pass manager wrapping "drc" around a checker that
           already opens "drc" yields one stage row, not "drc.drc" *)
        f ()
      | _ ->
        let parent = match !stack with [] -> None | p :: _ -> Some p in
        let fpath =
          match parent with None -> name | Some p -> p.fpath ^ "." ^ name
        in
        let fdepth = match parent with None -> 0 | Some p -> p.fdepth + 1 in
        let fr =
          { fname = name; fpath; fdepth; fstart = Unix.gettimeofday ()
          ; fcounters = []; fchildren = 0.0
          }
        in
        stack := fr :: !stack;
        let finish () =
          let dur = Unix.gettimeofday () -. fr.fstart in
          (match !stack with
          | top :: rest when top == fr -> stack := rest
          | _ -> ());
          (match !stack with
          | p :: _ -> p.fchildren <- p.fchildren +. dur
          | [] -> ());
          let e =
            { path = fr.fpath
            ; name = fr.fname
            ; depth = fr.fdepth
            ; tid = (Domain.self () :> int)
            ; start_us = (fr.fstart -. t.epoch) *. 1e6
            ; dur_us = dur *. 1e6
            ; self_us = (dur -. fr.fchildren) *. 1e6
            ; counters = List.rev fr.fcounters
            }
          in
          locked t (fun () -> t.finished <- e :: t.finished)
        in
        (match f () with
        | r ->
          finish ();
          r
        | exception e ->
          finish ();
          raise e)
    end

  let bump_frame fr name v ~add =
    match List.assoc_opt name fr.fcounters with
    | Some _ ->
      fr.fcounters <-
        List.map
          (fun (k, x) ->
            if k = name then (k, if add then x + v else v) else (k, x))
          fr.fcounters
    | None -> fr.fcounters <- (name, v) :: fr.fcounters

  let bump_global t name v ~add =
    locked t (fun () ->
        let old = try Hashtbl.find t.globals name with Not_found -> 0 in
        Hashtbl.replace t.globals name (if add then old + v else v))

  let bump t name v ~add =
    if t.on then begin
      (match !(stack t) with
      | fr :: _ -> bump_frame fr name v ~add
      | [] -> ());
      bump_global t name v ~add
    end

  let count t name n = bump t name n ~add:true
  let gauge t name v = bump t name v ~add:false

  let events t =
    List.sort
      (fun a b -> Float.compare a.start_us b.start_us)
      (locked t (fun () -> List.rev t.finished))

  let totals t =
    locked t (fun () -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.globals [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  (* --- per-stage aggregation --- *)

  let stage_table t =
    let acc : (string, row * float) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun e ->
        let merge (r, first) =
          ( { r with
              calls = r.calls + 1
            ; total_ms = r.total_ms +. (e.dur_us /. 1e3)
            ; self_ms = r.self_ms +. (e.self_us /. 1e3)
            ; rcounters =
                List.fold_left
                  (fun cs (k, v) ->
                    match List.assoc_opt k cs with
                    | Some old ->
                      List.map
                        (fun (k', x) -> if k' = k then (k', old + v) else (k', x))
                        cs
                    | None -> cs @ [ (k, v) ])
                  r.rcounters e.counters
            }
          , first )
        in
        let fresh =
          ( { rpath = e.path; rdepth = e.depth; calls = 0; total_ms = 0.0
            ; self_ms = 0.0; rcounters = []
            }
          , e.start_us )
        in
        Hashtbl.replace acc e.path
          (merge (try Hashtbl.find acc e.path with Not_found -> fresh)))
      (events t);
    Hashtbl.fold (fun _ rf l -> rf :: l) acc []
    |> List.sort (fun (ra, fa) (rb, fb) ->
           match Float.compare fa fb with
           | 0 -> Int.compare ra.rdepth rb.rdepth
           | c -> c)
    |> List.map fst

  let pp_counters ppf cs =
    List.iter (fun (k, v) -> Format.fprintf ppf " %s=%d" k v) cs

  let pp_summary ppf t =
    let rows = stage_table t in
    let wall =
      List.fold_left
        (fun a r -> if r.rdepth = 0 then a +. r.total_ms else a)
        0.0 rows
    in
    Format.fprintf ppf "%-28s %6s %9s %9s %6s  %s@."
      "stage" "calls" "total ms" "self ms" "%" "counters";
    List.iter
      (fun r ->
        let indent = String.make (2 * r.rdepth) ' ' in
        Format.fprintf ppf "%-28s %6d %9.2f %9.2f %5.1f%% %a@."
          (indent
          ^
          match String.rindex_opt r.rpath '.' with
          | Some i -> String.sub r.rpath (i + 1) (String.length r.rpath - i - 1)
          | None -> r.rpath)
          r.calls r.total_ms r.self_ms
          (if wall > 0.0 then 100.0 *. r.total_ms /. wall else 0.0)
          pp_counters r.rcounters)
      rows;
    match totals t with
    | [] -> ()
    | ts -> Format.fprintf ppf "counters:%a@." pp_counters ts

  (* --- Chrome trace-event export --- *)

  let chrome_trace t =
    let evs = events t in
    let span_events =
      List.map
        (fun e ->
          let base =
            [ ("name", Json.Str e.path)
            ; ("cat", Json.Str "scc")
            ; ("ph", Json.Str "X")
            ; ("ts", Json.Num e.start_us)
            ; ("dur", Json.Num e.dur_us)
            ; ("pid", Json.Num 1.0)
            ; ("tid", Json.Num (float_of_int (e.tid + 1)))
            ]
          in
          Json.Obj
            (match e.counters with
            | [] -> base
            | cs ->
              base
              @ [ ( "args"
                  , Json.Obj
                      (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) cs)
                  )
                ]))
        evs
    in
    let t_end =
      List.fold_left (fun a e -> Float.max a (e.start_us +. e.dur_us)) 0.0 evs
    in
    let counter_events =
      List.map
        (fun (k, v) ->
          Json.Obj
            [ ("name", Json.Str k)
            ; ("ph", Json.Str "C")
            ; ("ts", Json.Num t_end)
            ; ("pid", Json.Num 1.0)
            ; ("args", Json.Obj [ (k, Json.Num (float_of_int v)) ])
            ])
        (totals t)
    in
    Json.to_string
      (Json.Obj
         [ ("traceEvents", Json.Arr (span_events @ counter_events))
         ; ("displayTimeUnit", Json.Str "ms")
         ])

  let write_trace t path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (chrome_trace t))
end

(* --- the recorder in scope: unbound, a recorder nobody can enable --- *)

let current = Scope.key (Recorder.create ())
let with_recorder r f = Scope.with_ current r f
let enabled () = (Scope.get current).Recorder.on
let span name f = Recorder.span (Scope.get current) name f
let count name n = Recorder.count (Scope.get current) name n
let gauge name v = Recorder.gauge (Scope.get current) name v
