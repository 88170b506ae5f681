(* Cross-cutting properties and edge cases that belong to no single
   subsystem suite. *)

open Sc_geom
open Sc_tech
open Sc_layout

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* every property draws from a fixed-seed state so failures reproduce
   across runs and machines *)
let seeded test =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x51C0; 42 |]) test

let tile w h =
  Cell.make ~name:(Printf.sprintf "t%dx%d" w h)
    [ Cell.box Layer.Metal (Rect.make 0 0 w h) ]

(* --- composition algebra --- *)

let prop_row_width_is_sum =
  let gen = QCheck.Gen.(pair (list_size (int_range 1 6) (int_range 1 20)) (int_range 0 5)) in
  seeded
    (QCheck.Test.make ~name:"row width = sum of widths + separations" ~count:100
       (QCheck.make gen) (fun (widths, sep) ->
         let cells = List.map (fun w -> tile w 5) widths in
         let r = Compose.row ~name:"r" ~sep cells in
         Cell.width r
         = List.fold_left ( + ) 0 widths + (sep * (List.length widths - 1))))

let prop_col_height_is_sum =
  let gen = QCheck.Gen.(list_size (int_range 1 6) (int_range 1 20)) in
  seeded
    (QCheck.Test.make ~name:"col height = sum of heights" ~count:100
       (QCheck.make gen) (fun heights ->
         let cells = List.map (fun h -> tile 5 h) heights in
         Cell.height (Compose.col ~name:"c" cells)
         = List.fold_left ( + ) 0 heights))

let prop_array_flat_count =
  let gen = QCheck.Gen.(pair (int_range 1 6) (int_range 1 6)) in
  seeded
    (QCheck.Test.make ~name:"array flattens to nx*ny copies" ~count:60
       (QCheck.make gen) (fun (nx, ny) ->
         let a = Compose.array ~name:"a" ~nx ~ny (tile 4 4) in
         List.length (Flatten.run a) = nx * ny
         && Cell.flat_rect_count a = nx * ny))

let prop_flatten_transform_invariant =
  (* flattening a translated instance equals translating flattened boxes *)
  let gen = QCheck.Gen.(pair (int_range (-30) 30) (int_range (-30) 30)) in
  seeded
    (QCheck.Test.make ~name:"flatten commutes with translation" ~count:80
       (QCheck.make gen) (fun (dx, dy) ->
         let inner = Sc_stdcell.Nmos.inv () in
         let moved =
           Cell.make ~name:"m"
             ~instances:
               [ Cell.instantiate ~name:"i" ~trans:(Transform.translation dx dy)
                   inner
               ]
             []
         in
         let d = Point.make dx dy in
         let expected =
           List.map
             (fun (fb : Flatten.flat_box) ->
               { fb with Flatten.rect = Rect.translate d fb.rect })
             (Flatten.run inner)
         in
         let got = Flatten.run moved in
         let key (fb : Flatten.flat_box) =
           (Layer.index fb.layer, fb.rect.Rect.xmin, fb.rect.Rect.ymin,
            fb.rect.Rect.xmax, fb.rect.Rect.ymax)
         in
         List.sort compare (List.map key expected)
         = List.sort compare (List.map key got)))

let prop_area_invariant_under_orientation =
  seeded
    (QCheck.Test.make ~name:"cell area invariant under all orientations"
       ~count:50
       (QCheck.make (QCheck.Gen.oneofl Transform.all_orients))
       (fun o ->
         let inner = Sc_stdcell.Nmos.nand 2 in
         let c =
           Cell.make ~name:"o"
             ~instances:
               [ Cell.instantiate ~name:"i"
                   ~trans:(Transform.make ~orient:o Point.origin)
                   inner
               ]
             []
         in
         Cell.area c = Cell.area inner
         && Stats.transistor_count c = Stats.transistor_count inner))

(* --- DRC is orientation-blind --- *)

let prop_drc_invariant_under_orientation =
  seeded
    (QCheck.Test.make ~name:"DRC verdict invariant under orientation" ~count:30
       (QCheck.make (QCheck.Gen.oneofl Transform.all_orients))
       (fun o ->
         let inner = Sc_stdcell.Nmos.nor2 () in
         let c =
           Cell.make ~name:"o"
             ~instances:
               [ Cell.instantiate ~name:"i"
                   ~trans:(Transform.make ~orient:o Point.origin)
                   inner
               ]
             []
         in
         Sc_drc.Checker.is_clean c))

(* --- ROM edge cases --- *)

let test_rom_sparse_addresses_read_zero () =
  (* addresses past the programmed words, and all-zero words, read 0 *)
  let rom = Sc_rom.Rom.generate ~bits:4 [| 5; 0; 7 |] in
  let eng = Sc_sim.Engine.create (Sc_rom.Rom.netlist rom) in
  List.iter
    (fun (addr, expect) ->
      Sc_sim.Engine.set_input_int eng "in" addr;
      check_int
        (Printf.sprintf "addr %d" addr)
        expect
        (Option.get (Sc_sim.Engine.get_output_int eng "out")))
    [ (0, 5); (1, 0); (2, 7); (3, 0) ]

(* --- timing with a custom delay model --- *)

let test_timing_custom_delay () =
  let open Sc_netlist in
  let b = Builder.create "c" in
  let a = (Builder.input b "a" 1).(0) in
  let x = Builder.not_ b a in
  let y = Builder.and2 b x a in
  Builder.output b "y" [| y |];
  let c = Builder.finish b in
  check_int "default" 3 (Timing.critical_path c);
  check_int "all gates cost 10" 20
    (Timing.critical_path ~delay:(fun _ -> 10) c)

(* --- pads distribute round-robin --- *)

let test_pad_distribution () =
  let core = tile 100 100 in
  let a = Sc_chip.Assemble.assemble ~name:"c" ~core ~pads:10 () in
  (* 10 pads: bottom 3, right 3, top 2, left 2 *)
  let chip = a.Sc_chip.Assemble.chip in
  let pads =
    List.filter
      (fun (i : Cell.inst) -> i.inst_name <> "core")
      chip.Cell.instances
  in
  check_int "ten pads" 10 (List.length pads);
  let h = Cell.height chip and w = Cell.width chip in
  let side (i : Cell.inst) =
    let b = Cell.bbox_or_zero i.cell in
    let r = Transform.apply_rect i.trans b in
    if r.Rect.ymin = 0 then `Bottom
    else if r.Rect.ymax = h then `Top
    else if r.Rect.xmin = 0 then `Left
    else if r.Rect.xmax = w then `Right
    else `Middle
  in
  let count s = List.length (List.filter (fun i -> side i = s) pads) in
  check_int "bottom" 3 (count `Bottom);
  check_int "right" 3 (count `Right);
  check_int "top" 2 (count `Top);
  check_int "left" 2 (count `Left)

(* --- lang evaluation budget --- *)

let test_lang_budget () =
  (* a gigantic loop trips the step budget instead of hanging *)
  match
    Sc_lang.Lang.compile
      "cell main() { for i = 0 to 99999999 { box metal i i i+2 i+2; } }"
  with
  | Error e ->
    check_bool "budget error" true
      (let msg = Sc_lang.Lang.error_to_string e in
       String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected budget exhaustion"

(* --- optimizer vs formal checker, registers included --- *)

let prop_optimize_preserves_sequential =
  (* random gate DAGs with flip-flops mixed in; the optimizer's output
     must be formally equivalent over a bounded unrolling.  Guards the
     CSE-merges-registers regression: two registers sharing a D input
     are distinct state and must not be folded into one. *)
  let gen =
    QCheck.Gen.(
      list_size (int_range 3 20)
        (triple (int_range 0 10) (int_range 0 10) (int_range 0 5)))
  in
  seeded
    (QCheck.Test.make ~name:"simplify preserves sequential behaviour"
       ~count:40 (QCheck.make gen) (fun spec ->
         let open Sc_netlist in
         let b = Builder.create "r" in
         let ins = Builder.input b "x" 3 in
         (* at least one register is always present *)
         let reg = Builder.gate b Sc_netlist.Gate.Dff [| ins.(0) |] in
         let pool = ref (reg :: Array.to_list ins) in
         let pick k = List.nth !pool (k mod List.length !pool) in
         List.iter
           (fun (i, j, op) ->
             let a = pick i and c = pick j in
             let n =
               match op with
               | 0 -> Builder.and2 b a c
               | 1 -> Builder.or2 b a c
               | 2 -> Builder.xor2 b a c
               | 3 -> Builder.not_ b a
               | _ -> Builder.gate b Sc_netlist.Gate.Dff [| a |]
             in
             pool := n :: !pool)
           spec;
         Builder.output b "y"
           (Array.of_list (List.filteri (fun i _ -> i < 2) !pool));
         let c = Builder.finish b in
         match Sc_equiv.Checker.check ~k:5 c (Optimize.simplify c) with
         | Sc_equiv.Checker.Equivalent -> true
         | Sc_equiv.Checker.Not_equivalent _ -> false))

let suite =
  [ prop_row_width_is_sum
  ; prop_col_height_is_sum
  ; prop_array_flat_count
  ; prop_flatten_transform_invariant
  ; prop_area_invariant_under_orientation
  ; prop_drc_invariant_under_orientation
  ; Alcotest.test_case "ROM sparse addresses" `Quick test_rom_sparse_addresses_read_zero
  ; Alcotest.test_case "timing custom delay" `Quick test_timing_custom_delay
  ; Alcotest.test_case "pad distribution" `Quick test_pad_distribution
  ; Alcotest.test_case "lang budget" `Quick test_lang_budget
  ; prop_optimize_preserves_sequential
  ]
