(* The recorder as it was before each execution context recorded into
   its own part of it: one stack table keyed by (domain, thread) under
   the recorder's mutex, frame counters in an assoc list rebuilt by
   [List.map], global counters in a locked table, and the stage table
   rebuilt from the sorted events on every read; plus the metrics
   capture over it, with the section classification of that time.
   Kept as the oracle of test_obs's recorder property: on the same
   program the recorder must give the same totals, the same stage rows
   (path, depth, calls, counters) and the same events (path, depth,
   tid, counters), and the capture the same QoR section and runtime
   keys.  Timings are not the oracle's to judge.  The recorder is
   passed explicitly: the property runs both on one program. *)

type event = Sc_obs.Obs.event =
  { path : string
  ; name : string
  ; depth : int
  ; tid : int
  ; start_us : float
  ; dur_us : float
  ; self_us : float
  ; counters : (string * int) list
  }

type row = Sc_obs.Obs.row =
  { rpath : string
  ; rdepth : int
  ; calls : int
  ; total_ms : float
  ; self_ms : float
  ; rcounters : (string * int) list
  }

type frame =
  { fname : string
  ; fpath : string
  ; fdepth : int
  ; fstart : float
  ; mutable fcounters : (string * int) list  (* reverse insertion order *)
  ; mutable fchildren : float
  }

type t =
  { mutable on : bool
  ; mutable epoch : float
  ; lock : Mutex.t
  ; mutable finished : event list  (* reverse completion order *)
  ; globals : (string, int) Hashtbl.t
  ; stacks : (int * int, frame list ref) Hashtbl.t
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
  let k = ((Domain.self () :> int), Thread.id (Thread.self ())) in
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

let span t name f =
  if not t.on then f ()
  else begin
    let stack = stack t in
    match !stack with
    | top :: _ when top.fname = name -> f ()
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
        (fun (k, x) -> if k = name then (k, if add then x + v else v) else (k, x))
        fr.fcounters
  | None -> fr.fcounters <- (name, v) :: fr.fcounters

let bump_global t name v ~add =
  locked t (fun () ->
      let old = try Hashtbl.find t.globals name with Not_found -> 0 in
      Hashtbl.replace t.globals name (if add then old + v else v))

let bump t name v ~add =
  if t.on then begin
    (match !(stack t) with fr :: _ -> bump_frame fr name v ~add | [] -> ());
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

(* --- the metrics capture --- *)

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let has_suffix suf s =
  let n = String.length suf and m = String.length s in
  m >= n && String.sub s (m - n) n = suf

let is_runtime_key k =
  has_prefix "stage." k || has_prefix "cache." k || has_prefix "pool." k
  || has_prefix "pipeline." k || has_suffix ".tasks" k
  || has_suffix ".calls" k || has_suffix "_us" k

let round_us ms = Float.round (ms *. 1000.0)

(* the QoR and runtime sections, each sorted by key *)
let capture t =
  let qor, runtime =
    List.fold_left
      (fun (q, r) (k, v) ->
        let e = (k, float_of_int v) in
        if is_runtime_key k then (q, e :: r) else (e :: q, r))
      ([], []) (totals t)
  in
  let stages =
    List.concat_map
      (fun row ->
        let base = "stage." ^ row.rpath in
        [ (base ^ ".total_us", round_us row.total_ms)
        ; (base ^ ".self_us", round_us row.self_ms)
        ; (base ^ ".calls", float_of_int row.calls)
        ])
      (stage_table t)
  in
  let by_key (a, _) (b, _) = String.compare a b in
  (List.sort by_key qor, List.sort by_key (stages @ runtime))
