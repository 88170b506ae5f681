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
  ; promotes : bool
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

(* The bounding box accumulates in four ints carried through the walk,
   so a cell allocates only its result however many elements it has.  An
   instance's box is the image of two opposite corners of its cell's box:
   a Manhattan transform maps them to opposite corners of the image. *)
let compute_bbox elements instances =
  let rec over_elements x0 y0 x1 y1 = function
    | Box (_, r) :: rest -> over_rect x0 y0 x1 y1 r rest
    | Wire (_, p) :: rest -> (
      match Path.bbox p with
      | None -> over_elements x0 y0 x1 y1 rest
      | Some r -> over_rect x0 y0 x1 y1 r rest)
    | [] -> over_instances x0 y0 x1 y1 instances
  and over_rect x0 y0 x1 y1 (r : Rect.t) rest =
    over_elements (Int.min x0 r.xmin) (Int.min y0 r.ymin) (Int.max x1 r.xmax)
      (Int.max y1 r.ymax) rest
  and over_instances x0 y0 x1 y1 = function
    | { cell = { bbox = Some r; _ }; trans; _ } :: rest ->
      let a, b, c, d = Transform.matrix trans.orient in
      let sx = trans.shift.x and sy = trans.shift.y in
      let ax = (a * r.xmin) + (b * r.ymin) + sx
      and ay = (c * r.xmin) + (d * r.ymin) + sy in
      let bx = (a * r.xmax) + (b * r.ymax) + sx
      and by = (c * r.xmax) + (d * r.ymax) + sy in
      over_instances
        (Int.min x0 (Int.min ax bx))
        (Int.min y0 (Int.min ay by))
        (Int.max x1 (Int.max ax bx))
        (Int.max y1 (Int.max ay by))
        rest
    | { cell = { bbox = None; _ }; _ } :: rest -> over_instances x0 y0 x1 y1 rest
    | [] -> if x0 > x1 then None else Some (Rect.make x0 y0 x1 y1)
  in
  over_elements max_int max_int min_int min_int elements

module Names = Hashtbl.Make (String)

(* Names are checked in one table sized to the list, so building a cell
   of n ports never rehashes; a name already there leaves the table's
   size unchanged, so each name is hashed once. *)
let check_unique what name items =
  match items with
  | [] | [ _ ] -> ()
  | _ ->
    let tbl = Names.create (List.length items) in
    List.iter
      (fun item ->
        let n = name item and before = Names.length tbl in
        Names.replace tbl n ();
        if Names.length tbl = before then
          invalid_arg (Printf.sprintf "Cell.make: duplicate %s %S" what n))
      items

let rec ports c =
  if not c.promotes then c.ports
  else
    List.concat_map
      (fun i ->
        List.map
          (fun p ->
            { p with
              pname = i.inst_name ^ "." ^ p.pname
            ; rect = Transform.apply_rect i.trans p.rect
            })
          (ports i.cell))
      c.instances
    @ c.ports

let has_dot s = String.contains s '.'

(* A promoted name is "<inst>.<port of that instance's cell>".  When no
   instance name and no own port name contains a '.', the text before
   the first '.' names the instance, so distinct instance names and each
   cell's own distinct port names make every promoted name distinct, and
   none can equal an own port's.  Otherwise the whole list is checked. *)
let make ~name ?ports:(own = []) ?(instances = []) ?(promote = false) elements =
  check_unique "port" (fun p -> p.pname) own;
  check_unique "instance" (fun i -> i.inst_name) instances;
  let c =
    { name
    ; elements
    ; instances
    ; ports = own
    ; promotes = promote
    ; bbox = compute_bbox elements instances
    ; id = next_id ()
    }
  in
  if
    c.promotes
    && (List.exists (fun i -> has_dot i.inst_name) instances
       || List.exists (fun p -> has_dot p.pname) own)
  then check_unique "port" (fun p -> p.pname) (ports c);
  c

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

let port_in_parent i p = { p with rect = Transform.apply_rect i.trans p.rect }

(* An own port, or "<inst>.<rest>" for the instance whose name is a
   prefix ending at a '.': names are unique, so the first hit is the
   only one. *)
let rec find_port_opt c n =
  match List.find_opt (fun p -> String.equal p.pname n) c.ports with
  | Some _ as own -> own
  | None when c.promotes ->
    let len = String.length n in
    List.find_map
      (fun i ->
        let l = String.length i.inst_name in
        if l < len && n.[l] = '.' && String.starts_with ~prefix:i.inst_name n then
          Option.map
            (fun p -> { (port_in_parent i p) with pname = n })
            (find_port_opt i.cell (String.sub n (l + 1) (len - l - 1)))
        else None)
      c.instances
  | None -> None

let find_port c n =
  match find_port_opt c n with
  | Some p -> p
  | None -> raise Not_found

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
        ~promote:c.promotes
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
