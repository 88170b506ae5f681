open Sc_geom

(* "inst.port" in one allocation *)
let qualified inst port =
  let li = String.length inst and lp = String.length port in
  let b = Bytes.create (li + 1 + lp) in
  Bytes.blit_string inst 0 b 0 li;
  Bytes.set b li '.';
  Bytes.blit_string port 0 b (li + 1) lp;
  Bytes.unsafe_to_string b

(* All combinators funnel through [of_instances]: build the instance list,
   then export each sub-port under "instname.portname", in one pass over
   the instances' ports. *)
let of_instances ~name insts =
  let promote ports (i : Cell.inst) =
    List.fold_left
      (fun ports (p : Cell.port) ->
        { p with
          Cell.pname = qualified i.inst_name p.pname
        ; rect = Transform.apply_rect i.trans p.rect
        }
        :: ports)
      ports i.cell.ports
  in
  Cell.make ~name ~ports:(List.rev (List.fold_left promote [] insts)) ~instances:insts []

let lower_left c =
  let lo, _ = Rect.corners (Cell.bbox_or_zero c) in
  lo

let beside ~name ?(sep = 0) a b =
  let la = lower_left a and lb = lower_left b in
  let shift =
    Point.make (la.Point.x + Cell.width a + sep - lb.Point.x) (la.Point.y - lb.Point.y)
  in
  of_instances ~name
    [ Cell.instantiate ~name:"i0" a
    ; Cell.instantiate ~name:"i1" ~trans:(Transform.make shift) b
    ]

let above ~name ?(sep = 0) a b =
  let la = lower_left a and lb = lower_left b in
  let shift =
    Point.make (la.Point.x - lb.Point.x) (la.Point.y + Cell.height a + sep - lb.Point.y)
  in
  of_instances ~name
    [ Cell.instantiate ~name:"i0" a
    ; Cell.instantiate ~name:"i1" ~trans:(Transform.make shift) b
    ]

let chain ~name ~step cells =
  match cells with
  | [] -> Cell.empty name
  | first :: _ ->
    let origin = lower_left first in
    let insts, _ =
      List.fold_left
        (fun (insts, offset) c ->
          let lc = lower_left c in
          let shift = Point.sub offset lc in
          let i =
            Cell.instantiate
              ~name:(Printf.sprintf "i%d" (List.length insts))
              ~trans:(Transform.make shift) c
          in
          (i :: insts, step offset c))
        ([], origin) cells
    in
    of_instances ~name (List.rev insts)

let row ~name ?(sep = 0) cells =
  chain ~name
    ~step:(fun off c -> Point.add off (Point.make (Cell.width c + sep) 0))
    cells

let col ~name ?(sep = 0) cells =
  chain ~name
    ~step:(fun off c -> Point.add off (Point.make 0 (Cell.height c + sep)))
    cells

let array ~name ~nx ~ny ?dx ?dy cell =
  if nx <= 0 || ny <= 0 then invalid_arg "Compose.array: nx and ny must be positive";
  let dx = match dx with Some d -> d | None -> Cell.width cell in
  let dy = match dy with Some d -> d | None -> Cell.height cell in
  let insts = ref [] in
  for j = ny - 1 downto 0 do
    for i = nx - 1 downto 0 do
      let t = Transform.translation (i * dx) (j * dy) in
      insts :=
        Cell.instantiate ~name:(Printf.sprintf "r%dc%d" j i) ~trans:t cell
        :: !insts
    done
  done;
  of_instances ~name !insts

let abut ~name a pa b pb =
  let port_a = Cell.find_port a pa in
  let port_b = Cell.find_port b pb in
  let ca = Rect.center port_a.Cell.rect in
  let cb = Rect.center port_b.Cell.rect in
  let shift = Point.sub ca cb in
  of_instances ~name
    [ Cell.instantiate ~name:"i0" a
    ; Cell.instantiate ~name:"i1" ~trans:(Transform.make shift) b
    ]

let expose cell renames =
  let all = Flatten.ports cell in
  let extra =
    List.map
      (fun (qualified, fresh) ->
        match
          List.find_opt (fun (p : Cell.port) -> String.equal p.pname qualified) all
        with
        | Some p -> { p with Cell.pname = fresh }
        | None ->
          invalid_arg (Printf.sprintf "Compose.expose: no port %S" qualified))
      renames
  in
  Cell.add_ports cell extra
