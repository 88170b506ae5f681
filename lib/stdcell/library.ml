open Sc_layout
open Sc_netlist

type cell =
  { kind : Gate.kind
  ; layout : Cell.t
  ; area : int
  ; width : int
  ; height : int
  ; transistors : int
  ; delay : int
  }

(* Composite cells are rows of primitives; the layouts match the classic
   NAND-only constructions so the area is honest even though intra-cell
   wiring is abstracted. *)
let rec build_layout kind =
  match (kind : Gate.kind) with
  | Gate.Inv -> Nmos.inv ()
  | Gate.Nand2 -> Nmos.nand 2
  | Gate.Nand3 -> Nmos.nand 3
  | Gate.Nor2 -> Nmos.nor2 ()
  | Gate.Buf -> Nmos.row "buf" [ Nmos.inv (); Nmos.inv () ]
  | Gate.And2 -> Nmos.row "and2" [ Nmos.nand 2; Nmos.inv () ]
  | Gate.Or2 -> Nmos.row "or2" [ Nmos.nor2 (); Nmos.inv () ]
  | Gate.Nor3 ->
    (* nor3(a,b,c) = nor2(or2(a,b), c) *)
    Nmos.row "nor3" [ Nmos.nor2 (); Nmos.inv (); Nmos.nor2 () ]
  | Gate.Xor2 ->
    Nmos.row "xor2"
      [ Nmos.nand 2; Nmos.nand 2; Nmos.nand 2; Nmos.nand 2 ]
  | Gate.Xnor2 -> Nmos.row "xnor2" [ build_layout Gate.Xor2; Nmos.inv () ]
  | Gate.Mux2 ->
    Nmos.row "mux2" [ Nmos.inv (); Nmos.nand 2; Nmos.nand 2; Nmos.nand 2 ]
  | Gate.Dff ->
    Nmos.row "dff"
      [ Nmos.nand 2; Nmos.nand 2; Nmos.nand 2; Nmos.nand 2; Nmos.nand 3
      ; Nmos.nand 2
      ]
  | Gate.Dffe -> Nmos.row "dffe" [ build_layout Gate.Dff; build_layout Gate.Mux2 ]
  | Gate.Const0 | Gate.Const1 ->
    (* a tie-off: a strip of rail-height with no devices *)
    Cell.make
      ~name:(Gate.to_string kind)
      ~ports:
        [ Cell.port "y" Sc_tech.Layer.Metal (Sc_geom.Rect.make 4 0 4 3) ]
      [ Cell.box Sc_tech.Layer.Metal (Sc_geom.Rect.make 0 0 4 3)
      ; Cell.box Sc_tech.Layer.Metal (Sc_geom.Rect.make 0 37 4 40)
      ]

(* Domain-safe (placement restarts characterize cells from pool
   workers); the kind name is the key — cell generators are
   deterministic per kind. *)
let cells : cell Sc_cache.Cache.t =
  Sc_cache.Cache.create ~capacity:64 ~name:"stdcell" ()

let get kind =
  Sc_cache.Cache.find_or_add cells (Gate.to_string kind) @@ fun () ->
  let layout = build_layout kind in
  { kind
  ; layout
  ; area = Cell.area layout
  ; width = Cell.width layout
  ; height = Cell.height layout
  ; transistors = Gate.transistors kind
  ; delay = Gate.delay kind
  }

let layout_of kind = (get kind).layout

(* Per-cell DRC, content-addressed: the key is the digest of the
   flattened geometry, not the kind, so editing a generator invalidates
   exactly the layouts whose artwork changed. *)
let cell_drc : int Sc_cache.Cache.t =
  Sc_cache.Cache.create ~capacity:64 ~name:"celldrc" ()

let drc_violations kind =
  let flat = Flatten.run (layout_of kind) in
  let key = Sc_cache.Cache.digest (Marshal.to_string flat []) in
  Sc_cache.Cache.find_or_add cell_drc key (fun () ->
      List.length (Sc_drc.Checker.check_flat flat))

let drc_clean kind = drc_violations kind = 0

let all () = List.map get Gate.all

(* the same artwork and the same hierarchy, whatever the cells' ids *)
let rec same_shape (a : Cell.t) (b : Cell.t) =
  a == b
  || a.name = b.name && a.elements = b.elements && a.ports = b.ports
     && a.promotes = b.promotes
     && List.equal
          (fun (i : Cell.inst) (j : Cell.inst) ->
            i.inst_name = j.inst_name && i.trans = j.trans
            && same_shape i.cell j.cell)
          a.instances b.instances

let intern root =
  let library_copy (c : Cell.t) =
    match List.find_opt (fun k -> Gate.to_string k = c.name) Gate.all with
    | Some kind ->
      let own = layout_of kind in
      if same_shape own c then Some own else None
    | None -> None
  in
  let memo = Cell.Tbl.create 16 in
  let rec go (c : Cell.t) =
    match Cell.Tbl.find_opt memo c with
    | Some c' -> c'
    | None ->
      let instances =
        List.map
          (fun (i : Cell.inst) ->
            let cell =
              match library_copy i.cell with Some own -> own | None -> go i.cell
            in
            if cell == i.cell then i else { i with cell })
          c.instances
      in
      let c' =
        if List.for_all2 ( == ) instances c.instances then c
        else
          Cell.make ~name:c.name ~ports:c.ports ~instances ~promote:c.promotes
            c.elements
      in
      Cell.Tbl.replace memo c c';
      c'
  in
  match library_copy root with Some own -> own | None -> go root

let circuit_cell_area c =
  let s = Circuit.stats c in
  List.fold_left
    (fun acc (kind, n) -> acc + (n * (get kind).area))
    0 s.Circuit.by_kind
