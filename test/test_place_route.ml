open Sc_netlist

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let sample_circuit () =
  (* a small random-logic block: 4-bit adder plus some glue *)
  let b = Builder.create "blk" in
  let xs = Builder.input b "x" 4 in
  let ys = Builder.input b "y" 4 in
  let sums, cout = Builder.adder b xs ys in
  let z = Builder.and_reduce b (Array.to_list sums) in
  Builder.output b "sum" sums;
  Builder.output b "z" [| Builder.or2 b z cout |];
  Builder.finish b

(* --- placement --- *)

let test_problem_extraction () =
  let p = Sc_place.Placer.problem_of_circuit (sample_circuit ()) in
  check_bool "items" true (Array.length p.Sc_place.Placer.kinds > 10);
  check_bool "nets" true (Array.length p.Sc_place.Placer.nets > 5);
  (* all net endpoints are valid item indices *)
  Array.iter
    (Array.iter (fun i ->
         check_bool "endpoint in range" true
           (i >= 0 && i < Array.length p.Sc_place.Placer.kinds)))
    p.Sc_place.Placer.nets

let test_placements_disjoint () =
  let p = Sc_place.Placer.problem_of_circuit (sample_circuit ()) in
  List.iter
    (fun pl ->
      let n = Array.length p.Sc_place.Placer.kinds in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if pl.Sc_place.Placer.row.(i) = pl.Sc_place.Placer.row.(j) then begin
            let x0 = pl.Sc_place.Placer.x.(i)
            and x1 = pl.Sc_place.Placer.x.(i) + p.Sc_place.Placer.widths.(i) in
            let y0 = pl.Sc_place.Placer.x.(j)
            and y1 = pl.Sc_place.Placer.x.(j) + p.Sc_place.Placer.widths.(j) in
            check_bool "no overlap" true (x1 <= y0 || y1 <= x0)
          end
        done
      done)
    [ Sc_place.Placer.random p; Sc_place.Placer.ordered p ]

let test_ordered_beats_random () =
  let p = Sc_place.Placer.problem_of_circuit (sample_circuit ()) in
  let r = Sc_place.Placer.hpwl (Sc_place.Placer.random p) in
  let o = Sc_place.Placer.hpwl (Sc_place.Placer.ordered p) in
  check_bool (Printf.sprintf "ordered %d <= random %d" o r) true (o <= r)

let test_improve_monotone () =
  let p = Sc_place.Placer.problem_of_circuit (sample_circuit ()) in
  let pl = Sc_place.Placer.random p in
  let better = Sc_place.Placer.improve ~iters:500 pl in
  check_bool "improve does not worsen" true
    (Sc_place.Placer.hpwl better <= Sc_place.Placer.hpwl pl)

let test_improve_cost_matches_hpwl () =
  let p = Sc_place.Placer.problem_of_circuit (sample_circuit ()) in
  let pl = Sc_place.Placer.random ~seed:3 p in
  let pl', c = Sc_place.Placer.improve_cost ~iters:800 pl in
  check_int "incremental cost = from-scratch hpwl" (Sc_place.Placer.hpwl pl') c;
  check_bool "never worse than the start" true (c <= Sc_place.Placer.hpwl pl)

let prop_improve_cost_incremental_consistent =
  (* the delta-priced descent must agree with a from-scratch HPWL on
     whatever placement it ends at, from any random start *)
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"incremental improve cost = from-scratch hpwl"
       ~count:25
       QCheck.(make Gen.(int_range 0 1000))
       (fun seed ->
         let p = Sc_place.Placer.problem_of_circuit (sample_circuit ()) in
         let pl = Sc_place.Placer.random ~seed p in
         let pl', c = Sc_place.Placer.improve_cost ~iters:300 pl in
         c = Sc_place.Placer.hpwl pl' && c <= Sc_place.Placer.hpwl pl))

(* the constructive start is one of the candidates, so the winner can
   only match or beat it *)
let test_best_of_beats_constructive () =
  let p = Sc_place.Placer.problem_of_circuit (sample_circuit ()) in
  check_bool "beats or ties the improved constructive start" true
    (Sc_place.Placer.hpwl (Sc_place.Placer.best_of ~seeds:6 p)
    <= Sc_place.Placer.hpwl (Sc_place.Placer.improve (Sc_place.Placer.ordered p)))

let test_to_layout_drc_clean () =
  let p = Sc_place.Placer.problem_of_circuit (sample_circuit ()) in
  let pl = Sc_place.Placer.ordered p in
  let layout = Sc_place.Placer.to_layout ~name:"blk" pl in
  check_bool "placement layout is DRC clean" true (Sc_drc.Checker.is_clean layout);
  (* one instance per gate *)
  check_int "instances"
    (Array.length p.Sc_place.Placer.kinds)
    (List.length layout.Sc_layout.Cell.instances)

(* --- channel routing --- *)

open Sc_route.Channel

let simple_spec =
  { top = [ { x = 0; net = 1 }; { x = 14; net = 2 }; { x = 28; net = 3 } ]
  ; bottom = [ { x = 7; net = 1 }; { x = 21; net = 2 }; { x = 35; net = 3 } ]
  ; width = 40
  }

let test_route_simple () =
  let r = route simple_spec in
  check_bool "few tracks" true (r.tracks <= 2);
  check_bool "drc clean" true (Sc_drc.Checker.is_clean (draw r))

let test_route_shares_track () =
  (* nets 1 and 3 do not overlap horizontally: same track *)
  let spec =
    { top = [ { x = 0; net = 1 }; { x = 30; net = 3 } ]
    ; bottom = [ { x = 7; net = 1 }; { x = 40; net = 3 } ]
    ; width = 50
    }
  in
  let r = route spec in
  check_int "one track" 1 r.tracks

let test_route_through () =
  let spec =
    { top = [ { x = 10; net = 1 } ]
    ; bottom = [ { x = 10; net = 1 } ]
    ; width = 20
    }
  in
  let r = route spec in
  check_int "no tracks needed" 0 r.tracks;
  check_bool "still has geometry" true
    ((draw r).Sc_layout.Cell.bbox <> None)

let test_vertical_constraint_ordering () =
  (* column 10: net 1 on top, net 2 on bottom -> net 1's trunk above *)
  let spec =
    { top = [ { x = 10; net = 1 }; { x = 24; net = 1 } ]
    ; bottom = [ { x = 10; net = 2 }; { x = 31; net = 2 } ]
    ; width = 40
    }
  in
  let r = route spec in
  check_int "two tracks" 2 r.tracks;
  check_bool "drc clean" true (Sc_drc.Checker.is_clean (draw r))

let test_cycle_detected () =
  let spec =
    { top = [ { x = 0; net = 1 }; { x = 10; net = 2 } ]
    ; bottom = [ { x = 0; net = 2 }; { x = 10; net = 1 } ]
    ; width = 20
    }
  in
  check_bool "raises" true
    (try
       ignore (route spec);
       false
     with Unroutable _ -> true)

let test_dogleg_reduces_tracks () =
  (* one long net visiting many columns against short nets: doglegs let the
     long net change tracks *)
  let spec =
    { top =
        [ { x = 0; net = 9 }; { x = 14; net = 1 }; { x = 28; net = 9 }
        ; { x = 42; net = 2 }; { x = 56; net = 9 }
        ]
    ; bottom = [ { x = 7; net = 1 }; { x = 35; net = 2 } ]
    ; width = 60
    }
  in
  let plain = route spec in
  let dog = route ~dogleg:true spec in
  check_bool "dogleg not worse" true (dog.tracks <= plain.tracks);
  check_bool "both clean" true
    (Sc_drc.Checker.is_clean (draw plain) && Sc_drc.Checker.is_clean (draw dog))

let test_pin_spacing_validated () =
  let spec =
    { top = [ { x = 0; net = 1 }; { x = 3; net = 2 } ]; bottom = []; width = 20 }
  in
  check_bool "rejected" true
    (try
       ignore (route spec);
       false
     with Invalid_argument _ -> true)

let test_river () =
  (* order-preserving two-row connection: pair (xb, xt) joins the bottom
     pin at xb to the top pin at xt, one net per pair *)
  let pairs = [ (0, 14); (10, 28); (21, 35); (35, 49) ] in
  let r =
    route
      { top = List.mapi (fun net (_, x) -> { x; net }) pairs
      ; bottom = List.mapi (fun net (x, _) -> { x; net }) pairs
      ; width = 60
      }
  in
  check_bool "clean" true (Sc_drc.Checker.is_clean (draw r));
  check_bool "bounded tracks" true (r.tracks <= 4)


let test_route_channels () =
  let p = Sc_place.Placer.problem_of_circuit (sample_circuit ()) in
  let pl = Sc_place.Placer.ordered p in
  let rc = Sc_place.Placer.route_channels pl in
  (* one channel per adjacent row pair with crossing nets *)
  check_bool "channels exist" true
    (List.length rc.Sc_place.Placer.channels >= 1
    && List.length rc.Sc_place.Placer.channels <= pl.Sc_place.Placer.nrows - 1);
  check_bool "heights positive" true (rc.Sc_place.Placer.total_height > 0);
  (* every channel's geometry is DRC clean *)
  List.iter
    (fun (c : Sc_route.Channel.routed) ->
      check_bool "channel clean" true (Sc_drc.Checker.is_clean (draw c)))
    rc.Sc_place.Placer.channels

let test_route_channels_structure_helps () =
  let p = Sc_place.Placer.problem_of_circuit (sample_circuit ()) in
  let rnd = (Sc_place.Placer.route_channels (Sc_place.Placer.random p)).Sc_place.Placer.total_height in
  let ord =
    (Sc_place.Placer.route_channels
       (Sc_place.Placer.improve ~iters:2000 (Sc_place.Placer.ordered p)))
      .Sc_place.Placer.total_height
  in
  check_bool
    (Printf.sprintf "ordered %d <= random %d" ord rnd)
    true (ord <= rnd)

let prop_random_channels_route_clean =
  (* random non-conflicting specs: distinct nets per column, no cycles by
     construction (top pins use nets 0..k-1 left to right, bottom pins the
     same nets in the same order, shifted columns) *)
  let gen =
    QCheck.Gen.(
      let* k = int_range 2 6 in
      let* shift = int_range 1 3 in
      return (k, shift))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"order-preserving channels route clean" ~count:40
       (QCheck.make gen) (fun (k, shift) ->
         let top = List.init k (fun i -> { x = i * 14; net = i }) in
         let bottom = List.init k (fun i -> { x = (i * 14) + (7 * shift); net = i }) in
         let width = (k * 14) + (7 * shift) + 2 in
         let r = route { top; bottom; width } in
         Sc_drc.Checker.is_clean (draw r)))

let prop_next_free_is_linear_probing =
  (* the model is probing a set of taken slots one by one: the answer
     is the first untaken slot at or after the request *)
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xC4A7; 16 |])
    (QCheck.Test.make ~name:"next-free slots = linear probing" ~count:300
       QCheck.(list_of_size Gen.(int_range 0 60) (int_range 0 40))
       (fun requests ->
         let size = 41 + List.length requests in
         let slots = Sc_route.Next_free.create size in
         let used = Hashtbl.create 16 in
         List.for_all
           (fun s ->
             let probe = ref s in
             while Hashtbl.mem used !probe do
               incr probe
             done;
             Hashtbl.add used !probe ();
             let got = Sc_route.Next_free.find slots s in
             Sc_route.Next_free.take slots got;
             got = !probe)
           requests
         && Sc_route.Next_free.find slots 0 = Option.value ~default:size
              (List.find_opt (fun k -> not (Hashtbl.mem used k)) (List.init size Fun.id))))

(* --- differential: the near-linear router against the reference --- *)

let outcome f =
  match f () with
  | r -> Ok r
  | exception Unroutable m -> Error ("Unroutable: " ^ m)
  | exception Invalid_argument m -> Error ("Invalid_argument: " ^ m)

(* the kernel's counts against the reference's, and the drawn channel
   against the reference's artwork, element for element *)
let same_routed (a : routed) (b : Route_reference.routed) =
  a.tracks = b.tracks && a.height = b.height
  && a.trunk_length = b.trunk_length
  && (draw a).Sc_layout.Cell.elements = b.layout.Sc_layout.Cell.elements

let same_outcome same a b =
  match (a, b) with
  | Ok a, Ok b -> same a b
  | Error a, Error b -> String.equal a b
  | Ok _, Error _ | Error _, Ok _ -> false

let routes_like_reference pl =
  same_outcome
    (fun (rc : Sc_place.Placer.routed_channels) (channels, total_height) ->
      rc.total_height = total_height
      && List.length rc.channels = List.length channels
      && List.for_all2 same_routed rc.channels channels)
    (outcome (fun () -> Sc_place.Placer.route_channels pl))
    (outcome (fun () -> Route_reference.route_channels pl))

let builtin_problem =
  let memo = Hashtbl.create 8 in
  fun name ->
    match Hashtbl.find_opt memo name with
    | Some p -> p
    | None ->
      let p =
        match Sc_core.Designs.circuit ("isp:" ^ name) with
        | Some (Ok c) -> Sc_place.Placer.problem_of_circuit c
        | _ -> Alcotest.failf "builtin %s does not synthesize" name
      in
      Hashtbl.add memo name p;
      p

type start = Random_start of int | Ordered_start | Improved of int

let prop_placements_route_like_reference =
  let gen =
    QCheck.Gen.(
      let* design = oneofl [ "counter"; "traffic"; "alu4"; "gray"; "seqdet"; "pdp8_dp" ] in
      let* start =
        oneof
          [ map (fun s -> Random_start s) (int_range 0 999)
          ; return Ordered_start
          ; map (fun s -> Improved s) (int_range 0 999)
          ]
      in
      let* nrows = opt (int_range 1 40) in
      return (design, start, nrows))
  in
  let print (design, start, nrows) =
    Printf.sprintf "%s %s nrows=%s" design
      (match start with
      | Random_start s -> Printf.sprintf "random ~seed:%d" s
      | Ordered_start -> "ordered"
      | Improved s -> Printf.sprintf "improve (random ~seed:%d)" s)
      (match nrows with Some r -> string_of_int r | None -> "default")
  in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xC4A7; 17 |])
    (QCheck.Test.make ~name:"placements route exactly as the reference" ~count:200
       (QCheck.make ~print gen) (fun (design, start, nrows) ->
         let p = builtin_problem design in
         let pl =
           match start with
           | Random_start seed -> Sc_place.Placer.random ~seed ?nrows p
           | Ordered_start -> Sc_place.Placer.ordered ?nrows p
           | Improved seed ->
             Sc_place.Placer.improve ~iters:300 (Sc_place.Placer.random ~seed ?nrows p)
         in
         routes_like_reference pl))

let test_pdp8_routes_like_reference () =
  let pl = Sc_place.Placer.ordered (builtin_problem "pdp8") in
  check_bool "pdp8 channels identical to the reference" true (routes_like_reference pl)

(* Candidate columns 3 to 8 lambda apart; each side keeps a random
   subset at least 7 apart, so the sides share some columns (vertical
   constraints, and cycles among a few nets) and trunks end anywhere
   relative to each other (the left-edge clearance boundary).  The pin
   lists are shuffled, since their order decides the router's
   tie-breaks.  One case in ten is broken on purpose: a pin crowding
   another on one edge or on both, the width too narrow, or a pin below
   zero. *)
let gen_spec =
  QCheck.Gen.(
    let* gaps = list_size (int_range 1 24) (int_range 3 8) in
    let columns = List.rev (snd (List.fold_left (fun (x, acc) g -> (x + g, x :: acc)) (0, []) gaps)) in
    let* nets = int_range 1 8 in
    let* labels = array_repeat nets (int_range (-50) 1_000_000) in
    let side =
      let* picks =
        flatten_l
          (List.map
             (fun x ->
               let* keep = bool and* net = oneofa labels in
               return (keep, x, net))
             columns)
      in
      shuffle_l
        (snd
           (List.fold_left
              (fun (last, acc) (keep, x, net) ->
                if keep && x - last >= 7 then (x, { x; net } :: acc) else (last, acc))
              (-7, []) picks))
    in
    let* top = side and* bottom = side in
    let width = List.fold_left max 0 columns + 2 in
    let* dogleg = bool in
    let* flaw = int_range 0 39 in
    let crowd = function [] -> [] | p :: _ as pins -> { p with x = p.x + 1 } :: pins in
    return
      ( dogleg
      , match flaw with
        | 0 -> { top = crowd top; bottom; width }
        | 1 -> { top = crowd top; bottom = crowd bottom; width }
        | 2 -> { top; bottom; width = width - 3 }
        | 3 -> { top; bottom = List.map (fun p -> { p with x = p.x - 1 }) bottom; width }
        | _ -> { top; bottom; width } ))

let print_spec (dogleg, spec) =
  let pins ps = String.concat " " (List.map (fun p -> Printf.sprintf "%d:%d" p.x p.net) ps) in
  Printf.sprintf "dogleg=%b width=%d\n  top    %s\n  bottom %s" dogleg spec.width
    (pins spec.top) (pins spec.bottom)

let test_channels_route_like_reference () =
  let seen = Hashtbl.create 8 in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 0xC4A7; 18 |])
    (QCheck.Test.make ~name:"channel specs route exactly as the reference" ~count:500
       (QCheck.make ~print:print_spec gen_spec) (fun (dogleg, spec) ->
         let expected = outcome (fun () -> Route_reference.route ~dogleg spec) in
         let kind =
           match expected with
           | Ok r when r.tracks > 1 -> "several tracks"
           | Ok _ -> "at most one track"
           | Error m -> List.hd (String.split_on_char ':' m)
         in
         Hashtbl.replace seen (kind, dogleg) ();
         same_outcome same_routed (outcome (fun () -> route ~dogleg spec)) expected));
  List.iter
    (fun case ->
      List.iter
        (fun dogleg ->
          check_bool (Printf.sprintf "some case (dogleg=%b): %s" dogleg case) true
            (Hashtbl.mem seen (case, dogleg)))
        [ false; true ])
    [ "several tracks"; "at most one track"; "Unroutable"; "Invalid_argument" ]

(* Routing alone, with nothing drawn, gives the reference's counts and
   its exceptions. *)
let prop_route_counts_like_reference =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xC4A7; 22 |])
    (QCheck.Test.make ~name:"routing alone counts as the reference" ~count:500
       (QCheck.make ~print:print_spec gen_spec) (fun (dogleg, spec) ->
         same_outcome
           (fun (a : routed) (b : Route_reference.routed) ->
             a.tracks = b.tracks && a.height = b.height && a.trunk_length = b.trunk_length)
           (outcome (fun () -> route ~dogleg spec))
           (outcome (fun () -> Route_reference.route ~dogleg spec))))

(* Neither routing pdp8's channels nor building its layout — neither
   uses a domain pool — may force a minor collection ([Array.make],
   [Array.init], [Array.map] or [Array.of_list] of more than 256 fresh
   blocks empties the minor heap first).  The runtime counts each forced
   collection as an event; natural collections (the minor heap filling
   up, a major cycle ending) are not counted, so the bound is 0. *)
let test_no_forced_minor_collections () =
  let pl = Sc_place.Placer.ordered (builtin_problem "pdp8") in
  Runtime_events.start ();
  let cursor = Runtime_events.create_cursor None in
  let forced = ref 0 in
  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_counter:(fun _ _ counter value ->
        match counter with
        | Runtime_events.EV_C_FORCE_MINOR_MAKE_VECT
        | Runtime_events.EV_C_FORCE_MINOR_ALLOC_SMALL ->
          forced := !forced + value
        | _ -> ())
      ()
  in
  let drain () = ignore (Runtime_events.read_poll cursor callbacks None) in
  let measure what f =
    drain ();
    forced := 0;
    ignore (Sys.opaque_identity (f ()));
    drain ();
    check_int (what ^ ": forced minor collections") 0 !forced
  in
  Fun.protect
    ~finally:(fun () ->
      Runtime_events.free_cursor cursor;
      Runtime_events.pause ())
    (fun () ->
      measure "route_channels" (fun () -> Sc_place.Placer.route_channels pl);
      measure "to_layout" (fun () -> Sc_place.Placer.to_layout ~name:"pdp8" pl))

(* A placed layout is its instances: the composed cell stores no copy
   of the gates' ports, so laying out pdp8's 685 gates allocates a few
   dozen words per gate, not a record, a qualified name and a rectangle
   for each of the 12 534 ports it exports (about 316 k words when they
   were stored). *)
let test_to_layout_words_per_instance () =
  let pl = Sc_place.Placer.ordered (builtin_problem "pdp8") in
  (* the first call builds the library cells *)
  ignore (Sys.opaque_identity (Sc_place.Placer.to_layout ~name:"pdp8" pl));
  let before = Gc.minor_words () in
  let layout = Sc_place.Placer.to_layout ~name:"pdp8" pl in
  let words = Gc.minor_words () -. before in
  let n = List.length layout.Sc_layout.Cell.instances in
  check_int "instances" 685 n;
  check_bool "exports every gate's ports" true
    (List.length (Sc_layout.Cell.ports layout) > 12_000);
  check_bool
    (Printf.sprintf "%.0f minor words for %d instances, at most 60 000" words n)
    true (words <= 60_000.)

(* pdp8's 7 294 transistors are drawn by 25 distinct cells, and no two
   of its instances' channel geometry touch: the count visits each cell
   once and flattens nothing.  Flattening the chip on the channel
   layers took about 269 k words. *)
let test_transistor_count_words_per_cell () =
  let layout =
    match Sc_core.Compiler.compile_behavior Sc_core.Designs.pdp8_src with
    | Ok (c, _) -> c.Sc_core.Compiler.layout
    | Error d -> Alcotest.fail (Sc_pipeline.Diag.to_string d)
  in
  ignore (Sys.opaque_identity (Sc_layout.Stats.transistor_count layout));
  let before = Gc.minor_words () in
  let n = Sc_layout.Stats.transistor_count layout in
  let words = Gc.minor_words () -. before in
  check_int "transistors" 7294 n;
  check_bool
    (Printf.sprintf "%.0f minor words, at most 60 000" words)
    true (words <= 60_000.)

(* The specialised heap sort leaves equal keys exactly where
   [Array.sort] does: keys drawn from a few values, so most are tied,
   sorting a shuffled array of indices. *)
let prop_heapsort_like_array_sort =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5027; 22 |])
    (QCheck.Test.make ~name:"Heapsort.by_key = Array.sort" ~count:500
       QCheck.(triple (int_range 1 6) (list_of_size Gen.(int_range 0 300) small_nat) int)
       (fun (values, draws, seed) ->
         let key =
           Array.of_list (List.map (fun d -> float_of_int (d mod values) /. 2.0) draws)
         in
         let start = Array.init (Array.length key) Fun.id in
         let rng = Random.State.make [| seed |] in
         for i = Array.length start - 1 downto 1 do
           let j = Random.State.int rng (i + 1) in
           let t = start.(i) in
           start.(i) <- start.(j);
           start.(j) <- t
         done;
         let expected = Array.copy start and got = Array.copy start in
         Array.sort (fun i j -> Float.compare key.(i) key.(j)) expected;
         Sc_place.Heapsort.by_key key got;
         got = expected))

(* --- differential: the flat-array barycentre against the list one --- *)

(* Random flat circuits of [Inv]..[Dffe] gates over the input bits and
   earlier outputs; a hub input drives each gate input with probability
   [hub]/10, so some nets fan out to well over 50 items. *)
let gen_problem =
  let open QCheck.Gen in
  let kinds =
    Array.of_list
      (List.filter
         (fun k -> k <> Gate.Const0 && k <> Gate.Const1)
         Gate.all)
  in
  let* nin = int_range 1 6 and* ngates = int_range 2 160 and* hub = int_range 0 5 in
  let* gates =
    flatten_l
      (List.init ngates (fun g ->
           let* kind = oneofa kinds in
           let* ins =
             flatten_l
               (List.init (Gate.arity kind) (fun _ ->
                    let* to_hub = int_bound 9 in
                    if to_hub < hub then pure 2 else int_range 2 (1 + nin + g)))
           in
           pure
             { Circuit.kind; gname = Printf.sprintf "g%d" g; ins = Array.of_list ins
             ; out = 2 + nin + g }))
  in
  let inputs = Array.init nin (fun i -> 2 + i) in
  pure
    (Sc_place.Placer.problem_of_circuit
       (Circuit.create ~name:"rnd"
          ~ports:[ { Circuit.port_name = "i"; dir = Circuit.In; bits = inputs } ]
          ~gates ~insts:[] ~net_count:(2 + nin + ngates) ~net_names:[]))

let prop_ordered_like_reference =
  let fanout = ref 0 in
  let placed_like (a : Sc_place.Placer.placement) (b : Sc_place.Placer.placement) =
    a.x = b.x && a.row = b.row
  in
  let prop =
    QCheck.Test.make ~name:"flat barycentre = neighbour lists" ~count:120
      (QCheck.make
         ~print:(fun (p, _, _) ->
           Printf.sprintf "%d items, %d nets" (Array.length p.Sc_place.Placer.kinds)
             (Array.length p.Sc_place.Placer.nets))
         QCheck.Gen.(triple gen_problem (opt (int_range 1 6)) (int_range 0 2)))
      (fun (p, nrows, seeds) ->
        Array.iter (fun net -> fanout := max !fanout (Array.length net)) p.Sc_place.Placer.nets;
        placed_like (Sc_place.Placer.ordered ?nrows p) (Placer_reference.ordered ?nrows p)
        && placed_like
             (Sc_place.Placer.best_of ~seeds ~iters:100 ?nrows p)
             (Placer_reference.best_of ~seeds ~iters:100 ?nrows p))
  in
  Alcotest.test_case "flat barycentre = neighbour lists" `Quick (fun () ->
      QCheck.Test.check_exn ~rand:(Random.State.make [| 0xBA7C; 19 |]) prop;
      check_bool "some net fans out to more than 50 items" true (!fanout > 50))

(* [hpwl] is the place pass's replay: it runs on every recorded stage
   cache hit, so it must give the reference's number from any
   placement, and allocate nothing doing it *)
let prop_hpwl_like_reference =
  let gen =
    QCheck.Gen.(
      let* design = oneofl [ "counter"; "traffic"; "alu4"; "gray"; "seqdet"; "pdp8_dp"; "pdp8" ] in
      let* seed = opt (int_range 0 999) in
      let* nrows = opt (int_range 1 40) in
      return (design, seed, nrows))
  in
  let print (design, seed, nrows) =
    Printf.sprintf "%s %s nrows=%s" design
      (match seed with
      | Some s -> Printf.sprintf "random ~seed:%d" s
      | None -> "ordered")
      (match nrows with Some r -> string_of_int r | None -> "default")
  in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x4B91; 5 |])
    (QCheck.Test.make ~name:"hpwl = reference" ~count:100
       (QCheck.make ~print gen) (fun (design, seed, nrows) ->
         let p = builtin_problem design in
         let pl =
           match seed with
           | Some seed -> Sc_place.Placer.random ~seed ?nrows p
           | None -> Sc_place.Placer.ordered ?nrows p
         in
         Sc_place.Placer.hpwl pl = Placer_reference.hpwl pl))

let test_pdp8_hpwl_allocates_nothing () =
  let pl = Sc_place.Placer.ordered (builtin_problem "pdp8") in
  let expected = Placer_reference.hpwl pl in
  check_int "pdp8 hpwl = reference" expected (Sc_place.Placer.hpwl pl);
  let before = Gc.minor_words () in
  let h = Sc_place.Placer.hpwl pl in
  let words = Gc.minor_words () -. before in
  check_int "again" expected h;
  check_bool
    (Printf.sprintf "%.0f minor words for pdp8's hpwl, under 100" words)
    true (words < 100.)

let suite =
  [ Alcotest.test_case "problem extraction" `Quick test_problem_extraction
  ; Alcotest.test_case "placements disjoint" `Quick test_placements_disjoint
  ; Alcotest.test_case "ordered beats random" `Quick test_ordered_beats_random
  ; Alcotest.test_case "improve monotone" `Quick test_improve_monotone
  ; Alcotest.test_case "placement layout DRC clean" `Quick test_to_layout_drc_clean
  ; Alcotest.test_case "route simple" `Quick test_route_simple
  ; Alcotest.test_case "route shares track" `Quick test_route_shares_track
  ; Alcotest.test_case "route through pin" `Quick test_route_through
  ; Alcotest.test_case "vertical constraints ordered" `Quick test_vertical_constraint_ordering
  ; Alcotest.test_case "cycle detected" `Quick test_cycle_detected
  ; Alcotest.test_case "dogleg reduces tracks" `Quick test_dogleg_reduces_tracks
  ; Alcotest.test_case "pin spacing validated" `Quick test_pin_spacing_validated
  ; Alcotest.test_case "river route" `Quick test_river
  ; Alcotest.test_case "improve_cost matches hpwl" `Quick
      test_improve_cost_matches_hpwl
  ; prop_improve_cost_incremental_consistent
  ; Alcotest.test_case "best_of beats its constructive start" `Quick
      test_best_of_beats_constructive
  ; Alcotest.test_case "route channels from placement" `Quick test_route_channels
  ; Alcotest.test_case "routed channels: structure helps" `Quick test_route_channels_structure_helps
  ; prop_random_channels_route_clean
    ; prop_next_free_is_linear_probing
  ; prop_placements_route_like_reference
  ; Alcotest.test_case "pdp8 routes exactly as the reference" `Quick
      test_pdp8_routes_like_reference
  ; Alcotest.test_case "channel specs route exactly as the reference" `Quick
      test_channels_route_like_reference
  ; prop_route_counts_like_reference
  ; prop_heapsort_like_array_sort
  ; Alcotest.test_case "pdp8 routes and lays out without forced collections" `Quick
      test_no_forced_minor_collections
  ; Alcotest.test_case "pdp8 lays out in words per instance, not per port" `Quick
      test_to_layout_words_per_instance
  ; Alcotest.test_case "pdp8's transistor count allocates per distinct cell, not per flat box"
      `Quick test_transistor_count_words_per_cell
  ; prop_ordered_like_reference
  ; prop_hpwl_like_reference
  ; Alcotest.test_case "pdp8's hpwl allocates nothing" `Quick
      test_pdp8_hpwl_allocates_nothing
  ]
