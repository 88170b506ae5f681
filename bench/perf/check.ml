(* Output checks.  Every request's result is compared, outside the
   timed window, with what the compiler must produce:

   - a spec with a baseline (an unmodified builtin or counter12.v at
     restarts 0): the QoR figures the run reports equal the committed
     bench/baselines/NAME.json (daemon replies: the whole QoR section,
     byte for byte);
   - every other spec: DRC-clean, and identical to the first result
     seen for the same spec (CIF digest and QoR figures);
   - every CIF text written parses as CIF. *)

module Metrics = Sc_metrics.Metrics

(* what one compile produced, as the benchmark sees it *)
type obs =
  { gates : int option
  ; flipflops : int option
  ; area : int
  ; transistors : int
  ; drc : int
  ; cif_bytes : int
  ; cif_digest : string option  (** single-shot: digest of the written CIF *)
  ; qor : string option  (** daemon: {!Metrics.qor_string} of the reply *)
  }

type t =
  { baselines : (string, Metrics.snapshot) Hashtbl.t
  ; first : (string, obs) Hashtbl.t
  ; cifs : (string, bool) Hashtbl.t  (** digest -> parses *)
  ; mutable errors : string list
  }

let create ~root (specs : Plan.spec array) =
  let baselines = Hashtbl.create 8 in
  Array.iter
    (fun (s : Plan.spec) ->
      match s.baseline with
      | Some b when not (Hashtbl.mem baselines b) -> (
        let path = Filename.concat root ("bench/baselines/" ^ b ^ ".json") in
        match Metrics.read path with
        | Ok snap -> Hashtbl.replace baselines b snap
        | Error e -> failwith (path ^ ": " ^ e))
      | _ -> ())
    specs;
  { baselines; first = Hashtbl.create 64; cifs = Hashtbl.create 64; errors = [] }

let qor_int (snap : Metrics.snapshot) key =
  Option.map int_of_float (List.assoc_opt key snap.Metrics.qor)

let against_baseline snap o =
  let want key got =
    match qor_int snap key with
    | Some v when v <> got -> Some (Printf.sprintf "%s %d, baseline %d" key got v)
    | _ -> None
  in
  let opt key = function Some g -> want key g | None -> None in
  List.filter_map Fun.id
    [ opt "gates" o.gates; opt "flipflops" o.flipflops; want "area" o.area
    ; want "layout.transistors" o.transistors; want "drc.violations" o.drc
    ; want "cif.bytes" o.cif_bytes
    ]
  @
  match o.qor with
  | Some q when q <> Metrics.qor_string snap -> [ "QoR section differs from baseline" ]
  | _ -> []

(* record a problem (the first few are kept for the report) *)
let note t msg = if List.length t.errors < 20 then t.errors <- t.errors @ [ msg ]

(* [observe t spec o] — whether [o] is right; problems are noted *)
let observe t (spec : Plan.spec) o =
  let problems =
    match spec.baseline with
    | Some b -> against_baseline (Hashtbl.find t.baselines b) o
    | None -> (
      (if o.drc <> 0 then [ Printf.sprintf "%d DRC violations" o.drc ] else [])
      @
      match Hashtbl.find_opt t.first spec.id with
      | None ->
        Hashtbl.replace t.first spec.id o;
        []
      | Some f when f = o -> []
      | Some _ -> [ "output differs from an earlier compile of the same spec" ])
  in
  List.iter (fun p -> note t (spec.id ^ ": " ^ p)) problems;
  problems = []

(* whether [text] parses as CIF; each distinct text is parsed once *)
let cif_parses t ~id ~digest text =
  match Hashtbl.find_opt t.cifs digest with
  | Some ok -> ok
  | None ->
    let ok =
      match Sc_cif.Parse.parse text with
      | Ok _ -> true
      | Error e ->
        note t (id ^ ": CIF does not parse: " ^ e);
        false
    in
    Hashtbl.replace t.cifs digest ok;
    ok

(* the summary [scc isp/verilog] prints on stderr *)
let parse_stderr text =
  let gates = ref None and ff = ref None and cell = ref None in
  let passes = ref [] in
  List.iter
    (fun line ->
      (try
         Scanf.sscanf line "netlist: %d gates, %d flip-flops" (fun g f ->
             gates := Some g;
             ff := Some f)
       with Scanf.Scan_failure _ | End_of_file | Failure _ -> ());
      (try
         Scanf.sscanf line "cell %[^:]: %dx%d lambda, %d transistors, DRC %[^\n]"
           (fun _ w h tr drc ->
             let drc =
               if drc = "clean" then 0
               else Scanf.sscanf drc "%d violations" Fun.id
             in
             cell := Some (w * h, tr, drc))
       with Scanf.Scan_failure _ | End_of_file | Failure _ -> ());
      try
        Scanf.sscanf line "explain: %s %[^\n]" (fun pass status ->
            passes := (pass, status) :: !passes)
      with Scanf.Scan_failure _ | End_of_file | Failure _ -> ())
    (String.split_on_char '\n' text);
  (!gates, !ff, !cell, List.rev !passes)
