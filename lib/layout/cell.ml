open Sc_geom
open Sc_tech

type element =
  | Box of Layer.t * Rect.t
  | Wire of Layer.t * Path.t

type port = { pname : string; layer : Layer.t; rect : Rect.t }

type t =
  { name : string
  ; elements : element list
  ; instances : inst list
  ; ports : port list
  ; bbox : Rect.t option
  ; id : int
  }

and inst = { inst_name : string; cell : t; trans : Transform.t }

let next_id =
  let counter = Atomic.make 0 in
  fun () -> Atomic.fetch_and_add counter 1 + 1

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = ( == )
  let hash c = Hashtbl.hash c.id
end)

let element_bbox = function
  | Box (_, r) -> Some r
  | Wire (_, p) -> Path.bbox p

let union_opt a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some r1, Some r2 -> Some (Rect.union_bbox r1 r2)

let inst_bbox i =
  match i.cell.bbox with
  | None -> None
  | Some r -> Some (Transform.apply_rect i.trans r)

let compute_bbox elements instances =
  let eb =
    List.fold_left (fun acc e -> union_opt acc (element_bbox e)) None elements
  in
  List.fold_left (fun acc i -> union_opt acc (inst_bbox i)) eb instances

let check_unique what names =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun n ->
      if Hashtbl.mem tbl n then
        invalid_arg (Printf.sprintf "Cell.make: duplicate %s %S" what n);
      Hashtbl.add tbl n ())
    names

let make ~name ?(ports = []) ?(instances = []) elements =
  check_unique "port" (List.map (fun p -> p.pname) ports);
  check_unique "instance" (List.map (fun i -> i.inst_name) instances);
  { name
  ; elements
  ; instances
  ; ports
  ; bbox = compute_bbox elements instances
  ; id = next_id ()
  }

let empty name = make ~name []

let box l r = Box (l, r)
let wire l ~width pts = Wire (l, Path.make ~width pts)
let port pname layer rect = { pname; layer; rect }

let inst_counter = ref 0

let instantiate ?name ?(trans = Transform.identity) cell =
  let inst_name =
    match name with
    | Some n -> n
    | None ->
      incr inst_counter;
      Printf.sprintf "%s_%d" cell.name !inst_counter
  in
  { inst_name; cell; trans }

let add c es =
  make ~name:c.name ~ports:c.ports ~instances:c.instances (c.elements @ es)

let add_ports c ps =
  make ~name:c.name ~ports:(c.ports @ ps) ~instances:c.instances c.elements

let rename name c = { c with name }

let find_port_opt c n = List.find_opt (fun p -> String.equal p.pname n) c.ports

let find_port c n =
  match find_port_opt c n with
  | Some p -> p
  | None -> raise Not_found

let port_in_parent i p = { p with rect = Transform.apply_rect i.trans p.rect }

let bbox c = c.bbox

let bbox_or_zero c =
  match c.bbox with Some r -> r | None -> Rect.make 0 0 0 0

let width c = Rect.width (bbox_or_zero c)
let height c = Rect.height (bbox_or_zero c)
let area c = Rect.area (bbox_or_zero c)

let translate_elements d es =
  let move = function
    | Box (l, r) -> Box (l, Rect.translate d r)
    | Wire (l, p) -> Wire (l, Path.translate d p)
  in
  List.map move es

let translate_to_origin c =
  match c.bbox with
  | None -> c
  | Some r ->
    let lo, _ = Rect.corners r in
    let d = Point.neg lo in
    if Point.equal d Point.origin then c
    else
      make ~name:c.name
        ~ports:(List.map (fun p -> { p with rect = Rect.translate d p.rect }) c.ports)
        ~instances:
          (List.map
             (fun i ->
               { i with trans = Transform.compose (Transform.make d) i.trans })
             c.instances)
        (translate_elements d c.elements)

let all_cells root =
  let seen = Tbl.create 64 in
  let acc = ref [] in
  let rec visit c =
    if not (Tbl.mem seen c) then begin
      Tbl.add seen c ();
      List.iter (fun i -> visit i.cell) c.instances;
      acc := c :: !acc
    end
  in
  visit root;
  List.rev !acc

let flat_rect_count root =
  let memo = Tbl.create 64 in
  let rec count c =
    match Tbl.find_opt memo c with
    | Some n -> n
    | None ->
      let own =
        List.fold_left
          (fun acc e ->
            match e with
            | Box _ -> acc + 1
            | Wire (_, p) -> acc + max 1 (List.length p.Path.points - 1))
          0 c.elements
      in
      let n =
        List.fold_left (fun acc i -> acc + count i.cell) own c.instances
      in
      Tbl.add memo c n;
      n
  in
  count root

let pp ppf c =
  Format.fprintf ppf "cell %s: %d elems, %d insts, %d ports, bbox %a" c.name
    (List.length c.elements) (List.length c.instances) (List.length c.ports)
    (Format.pp_print_option Rect.pp)
    c.bbox
