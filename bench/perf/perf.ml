(* perf.exe — the seeded end-to-end benchmark of the silicon compiler.

   perf.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1]
            [--json FILE] [--scc PATH] [--root DIR]
   perf.exe --smoke [--scc PATH] [--root DIR]
   perf.exe --compare A.json... -- B.json... [--root DIR]

   Without --workload every workload runs in turn.  --trace 0 (the
   default) measures the end-to-end metrics against the real scc binary
   with observability off; --trace 1 gives the per-layer metrics from an
   in-process replay and writes a Chrome trace.  The last line of
   standard output is one JSON object: correct, attempted, failed and
   the metrics.  See bench/perf/README.md. *)

module Json = Sc_obs.Json

let num v = if Float.is_finite v then Json.Num v else Json.Null

(* --- BENCHMARK.json --------------------------------------------------- *)

type declared =
  { dname : string
  ; lower_better : bool
  ; bound : float
  }

let read_benchmark root =
  let path = Filename.concat root "BENCHMARK.json" in
  match Json.parse (Proc.read_file path) with
  | Error e -> failwith (path ^ ": " ^ e)
  | Ok j ->
    let list key =
      match Json.member key j with
      | Some (Json.Arr l) -> l
      | _ -> failwith (path ^ ": no " ^ key ^ " list")
    in
    let str k o = match Json.member k o with Some (Json.Str s) -> s | _ -> "" in
    let declared o =
      { dname = str "name" o
      ; lower_better = str "better" o <> "higher"
      ; bound =
          (match Json.member "bound" o with Some (Json.Num b) -> b | _ -> 0.)
      }
    in
    (List.map declared (list "end_to_end"), List.map declared (list "per_layer"))

(* --- reporting -------------------------------------------------------- *)

let print_result ~trace (r : Load.result) =
  Printf.printf "== %s%s: %d requests, %d failed, %s\n" r.Load.workload
    (if trace then " (traced)" else "")
    r.attempted r.failed
    (if r.failed = 0 then "correct" else "INCORRECT");
  let row (m : Load.metric) =
    Printf.printf "  %-36s %14.4f %-9s n=%d%s\n" m.Load.name m.value m.unit m.n
      (if m.note = "" then "" else "  " ^ m.note)
  in
  List.iter row r.metrics;
  if r.layers <> [] then begin
    Printf.printf "  -- layers\n";
    List.iter row r.layers
  end;
  List.iter (fun e -> Printf.printf "  ! %s\n" e) r.errors;
  flush stdout

let metrics_json ?(n = true) ms =
  Json.Obj
    (List.map
       (fun (m : Load.metric) ->
         ( m.Load.name
         , Json.Obj
             ([ ("value", num m.value); ("unit", Json.Str m.unit) ]
             @ if n then [ ("n", Json.Num (float_of_int m.n)) ] else []) ))
       ms)

let results_json ~seed ~trace results =
  Json.Obj
    [ ("seed", Json.Num (float_of_int seed))
    ; ("trace", Json.Bool trace)
    ; ( "workloads"
      , Json.Obj
          (List.map
             (fun (r : Load.result) ->
               ( r.Load.workload
               , Json.Obj
                   [ ("attempted", Json.Num (float_of_int r.attempted))
                   ; ("failed", Json.Num (float_of_int r.failed))
                   ; ("metrics", metrics_json r.metrics)
                   ; ("layers", metrics_json r.layers)
                   ] ))
             results) )
    ]

(* the line the harness reads: the declared metrics only, prefixed by
   workload when several workloads ran *)
let final_line ~declared results =
  let prefix = match results with [ _ ] -> fun _ n -> n | _ -> fun w n -> w ^ "." ^ n in
  let ms =
    List.concat_map
      (fun (r : Load.result) ->
        List.filter_map
          (fun d ->
            List.find_opt
              (fun (m : Load.metric) -> m.Load.name = d.dname)
              (r.metrics @ r.layers)
            |> Option.map (fun m -> { m with Load.name = prefix r.Load.workload m.Load.name }))
          declared)
      results
  in
  let sum f = List.fold_left (fun a r -> a + f r) 0 results in
  let attempted = sum (fun r -> r.Load.attempted) in
  let failed = sum (fun r -> r.Load.failed) in
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool (failed = 0))
       ; ("attempted", Json.Num (float_of_int attempted))
       ; ("failed", Json.Num (float_of_int failed))
       ; ("metrics", metrics_json ~n:false ms)
       ])

(* --- the traced run --------------------------------------------------- *)

let ladder ~seed =
  List.mapi
    (fun i p -> (Gen.make ~seed ~index:(900 + i) p).Gen.design)
    Layers.ladder_params

let traced env ~specs ~ladder ~probe ~reps ~startup_reps ~trace_file name =
  let check = Check.create ~root:env.Load.root (Array.of_list specs) in
  let metrics, attempted, failed =
    Layers.run env ~check ~specs ~ladder ~probe ~reps ~startup_reps ~trace_file
  in
  { Load.workload = name
  ; attempted
  ; failed
  ; errors = check.Check.errors
  ; metrics = []
  ; layers = metrics
  }

let run_workload env ~seed ~seconds ~trace name =
  if not trace then Load.run env ~seed ~seconds ~limit:max_int ~setups:3 name
  else begin
    let plan = Plan.make ~root:env.Load.root ~seed name in
    let trace_file = ".perf/perf-trace.json" in
    let r =
      traced env
        ~specs:(List.map (fun i -> plan.Plan.specs.(i)) plan.replay)
        ~ladder:(ladder ~seed) ~probe:Sc_core.Designs.pdp8_src ~reps:5
        ~startup_reps:50 ~trace_file name
    in
    Printf.eprintf "perf: Chrome trace written to %s\n%!" trace_file;
    r
  end

(* --- smoke ------------------------------------------------------------ *)

(* Three requests per workload and a two-design trace: fails when a
   metric BENCHMARK.json declares is missing or any request failed. *)
let smoke env ~seed =
  let declared_e2e, declared_layers = read_benchmark env.Load.root in
  let runs =
    List.map (fun w -> Load.run env ~seed ~seconds:60 ~limit:3 ~setups:1 w) Plan.names
  in
  let smallest = Gen.make ~seed ~index:0 (List.hd Plan.small_params) in
  let counter = Plan.builtin "counter" in
  let trace =
    traced env
      ~specs:[ counter; Plan.generated smallest ]
      ~ladder:[ Sc_core.Designs.parse counter.Plan.source; smallest.Gen.design ]
      ~probe:counter.Plan.source ~reps:1 ~startup_reps:5
      ~trace_file:(Filename.concat env.Load.dir "perf-trace.json")
      "smoke"
  in
  let missing (r : Load.result) declared =
    List.filter_map
      (fun d ->
        if List.exists (fun (m : Load.metric) -> m.Load.name = d.dname) (r.metrics @ r.layers)
        then None
        else Some (r.workload ^ ": " ^ d.dname))
      declared
  in
  let problems =
    List.concat_map (fun r -> missing r declared_e2e) runs
    @ missing trace declared_layers
    @ List.filter_map
        (fun (r : Load.result) ->
          if r.failed > 0 then Some (Printf.sprintf "%s: %d failed" r.workload r.failed)
          else None)
        (trace :: runs)
  in
  if problems = [] then begin
    Printf.printf "perf smoke: ok (%s)\n"
      (String.concat ", "
         (List.map
            (fun (r : Load.result) ->
              Printf.sprintf "%s %d requests" r.Load.workload r.attempted)
            (runs @ [ trace ])));
    0
  end
  else begin
    List.iter (print_result ~trace:false) runs;
    print_result ~trace:true trace;
    List.iter (fun p -> Printf.printf "perf smoke: %s\n" p) problems;
    1
  end

(* --- compare ---------------------------------------------------------- *)

(* per (metric, workload): the values across a set of result files *)
let collect files =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun file ->
      match Json.parse (Proc.read_file file) with
      | Error e -> failwith (file ^ ": " ^ e)
      | Ok j -> (
        match Json.member "workloads" j with
        | Some (Json.Obj ws) ->
          List.iter
            (fun (w, r) ->
              match Json.member "metrics" r with
              | Some (Json.Obj ms) ->
                List.iter
                  (fun (name, m) ->
                    match Json.member "value" m with
                    | Some (Json.Num v) ->
                      let k = (name, w) in
                      Hashtbl.replace tbl k
                        (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
                    | _ -> ())
                  ms
              | _ -> ())
            ws
        | _ -> failwith (file ^ ": not a results file")))
    files;
  fun k -> List.rev (Option.value ~default:[] (Hashtbl.find_opt tbl k))

(* Verdict of B against A for one metric: worse (in the metric's
   direction) by more than its bound is a regression, better by more is
   an improvement.  When either side's spread (IQR over median) is wider
   than the bound, no verdict is possible unless every run of B beats
   every run of A. *)
let verdict d a b =
  let med = Stat.median in
  let spread xs =
    let q1, q3 = Stat.quartiles xs in
    (q3 -. q1) /. Float.abs (med xs)
  in
  let better x y = if d.lower_better then x < y else x > y in
  let change = (med b -. med a) /. Float.abs (med a) in
  let change = if d.lower_better then change else -.change in
  let b_beats_all = List.for_all (fun y -> List.for_all (better y) a) b in
  if max (spread a) (spread b) > d.bound then
    if b_beats_all then "improved" else "unresolved"
  else if change > d.bound then "regressed"
  else if change < -.d.bound then "improved"
  else "neutral"

let compare ~root a_files b_files =
  let declared, _ = read_benchmark root in
  let a = collect a_files and b = collect b_files in
  Printf.printf "%-16s %-10s %11s %11s %11s   %11s %11s %11s   %s\n" "metric" "workload"
    "A q1" "A median" "A q3" "B q1" "B median" "B q3" "verdict";
  let verdicts =
    List.concat_map
      (fun d ->
        List.filter_map
          (fun w ->
            let av = a (d.dname, w) and bv = b (d.dname, w) in
            if av = [] || bv = [] then None
            else begin
              let q1a, q3a = Stat.quartiles av and q1b, q3b = Stat.quartiles bv in
              let v = verdict d av bv in
              Printf.printf "%-16s %-10s %11.4f %11.4f %11.4f   %11.4f %11.4f %11.4f   %s (n=%d/%d, bound %g)\n"
                d.dname w q1a (Stat.median av) q3a q1b (Stat.median bv) q3b v
                (List.length av) (List.length bv) d.bound;
              Some v
            end)
          Plan.names)
      declared
  in
  if List.exists (fun v -> v = "regressed" || v = "unresolved") verdicts then 1 else 0

(* --- command line ----------------------------------------------------- *)

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 15 and trace = ref false in
  let json = ref None and scc = ref None and root = ref "." in
  let smoke_mode = ref false and compare_mode = ref false in
  let a_files = ref [] and b_files = ref [] and after_sep = ref false in
  let usage =
    "perf.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--json FILE] \
     [--scc PATH] [--root DIR] | --smoke | --compare A.json... -- B.json..."
  in
  let specs =
    [ ("--workload", Arg.String (fun w -> workload := Some w), "W one of " ^ String.concat ", " Plan.names)
    ; ("--seed", Arg.Set_int seed, "N input seed (default 1)")
    ; ("--seconds", Arg.Set_int seconds, "S timed run length per workload (default 15)")
    ; ( "--trace"
      , Arg.Symbol ([ "0"; "1" ], fun t -> trace := t = "1")
      , " 1: the per-layer traced run instead of the timed run" )
    ; ("--json", Arg.String (fun f -> json := Some f), "FILE write the results as JSON")
    ; ("--scc", Arg.String (fun s -> scc := Some s), "PATH compiler binary (default ROOT/_build/default/bin/scc.exe)")
    ; ("--root", Arg.Set_string root, "DIR repository checkout (default .)")
    ; ("--smoke", Arg.Set smoke_mode, " three requests per workload, check every declared metric")
    ; ("--compare", Arg.Set compare_mode, " compare result files: A... -- B...")
    ; ("--", Arg.Unit (fun () -> after_sep := true), " separates the two sides of --compare")
    ]
  in
  let anon f = if !after_sep then b_files := f :: !b_files else a_files := f :: !a_files in
  (try Arg.parse_argv Sys.argv (Arg.align specs) anon usage with
  | Arg.Bad m -> prerr_string m; exit 2
  | Arg.Help m -> print_string m; exit 0);
  let root = !root in
  (* a daemon that dies mid-request must fail the request, not kill us *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let code =
    try
      if !compare_mode then compare ~root (List.rev !a_files) (List.rev !b_files)
      else begin
        let scc =
          match !scc with
          | Some s -> s
          | None -> Filename.concat root "_build/default/bin/scc.exe"
        in
        if not (Sys.file_exists scc) then failwith ("no compiler binary at " ^ scc);
        List.iter
          (fun w -> if not (List.mem w Plan.names) then failwith ("unknown workload " ^ w))
          (Option.to_list !workload);
        (* scratch space under the working directory, removed at exit *)
        let env =
          { Load.scc
          ; root
          ; dir =
              (if !smoke_mode then Printf.sprintf ".perf-smoke-%d" (Unix.getpid ())
               else Printf.sprintf ".perf/run-%d" (Unix.getpid ()))
          }
        in
        Proc.mkdir_p env.Load.dir;
        Fun.protect
          ~finally:(fun () -> Proc.rm_rf env.Load.dir)
          (fun () ->
            if !smoke_mode then smoke env ~seed:!seed
            else begin
              let declared_e2e, declared_layers = read_benchmark root in
              let tr = !trace in
              let results =
                List.map
                  (fun w ->
                    let r = run_workload env ~seed:!seed ~seconds:!seconds ~trace:tr w in
                    print_result ~trace:tr r;
                    r)
                  (match !workload with Some w -> [ w ] | None -> Plan.names)
              in
              Option.iter
                (fun f -> Proc.write_file f (Json.to_string (results_json ~seed:!seed ~trace:tr results) ^ "\n"))
                !json;
              print_endline
                (final_line
                   ~declared:(if tr then declared_layers else declared_e2e)
                   results);
              0
            end)
      end
    with Failure e | Invalid_argument e | Sys_error e | Gen.Invalid e ->
      Printf.eprintf "perf: %s\n" e;
      2
  in
  exit code
