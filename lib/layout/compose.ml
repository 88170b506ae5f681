open Sc_geom

(* All combinators funnel through [of_instances]: a promoting cell of
   the instances, whose ports are derived from theirs when read. *)
let of_instances ~name insts = Cell.make ~name ~instances:insts ~promote:true []

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

let array ~name ~nx ~ny cell =
  if nx <= 0 || ny <= 0 then invalid_arg "Compose.array: nx and ny must be positive";
  let dx = Cell.width cell and dy = Cell.height cell in
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
