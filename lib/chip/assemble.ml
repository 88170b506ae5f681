open Sc_geom
open Sc_tech
open Sc_layout

let pad_size = 80
let ring = 120 (* pad depth (100) + clearance to the core *)
let pitch = 100

(* the bonding pad: an 80x80 metal square with a 60x60 glass opening
   and an inward stub carrying the "pin" port on its outer stub end *)
let pad_cell =
  lazy
    (Cell.make ~name:"pad"
       ~ports:[ Cell.port "pin" Layer.Metal (Rect.make 36 100 44 100) ]
       [ Cell.box Layer.Metal (Rect.make 0 0 80 80)
       ; Cell.box Layer.Glass (Rect.make 10 10 70 70)
       ; Cell.box Layer.Metal (Rect.make 36 80 44 100)
       ])

let pad () = Lazy.force pad_cell

type assembly =
  { chip : Cell.t
  ; pads : int
  ; core_area : int
  ; chip_area : int
  ; overhead : float
  }

type side = Bottom | Right | Top | Left

let assemble ?(bind = []) ~name ~core ~pads () =
  if pads < 4 then invalid_arg "Assemble.assemble: need at least 4 pads";
  let core = Cell.translate_to_origin core in
  let core_w = Cell.width core and core_h = Cell.height core in
  let per_side s =
    let s = match s with Bottom -> 0 | Right -> 1 | Top -> 2 | Left -> 3 in
    (pads + 3 - s) / 4
  in
  let nb = per_side Bottom and nr = per_side Right in
  let nt = per_side Top and nl = per_side Left in
  let width =
    max (core_w + (2 * ring)) ((2 * ring) + (pitch * max nb nt))
  in
  let height =
    max (core_h + (2 * ring)) ((2 * ring) + (pitch * max nl nr))
  in
  let core_x = (width - core_w) / 2 and core_y = (height - core_h) / 2 in
  let p = pad () in
  let instances = ref [] in
  let wires = ref [] in
  let core_inst =
    Cell.instantiate ~name:"core" ~trans:(Transform.translation core_x core_y) core
  in
  instances := [ core_inst ];
  let core_port pname =
    match Cell.find_port_opt core pname with
    | Some port ->
      Rect.center (Rect.translate (Point.make core_x core_y) port.Cell.rect)
    | None ->
      invalid_arg (Printf.sprintf "Assemble.assemble: core has no port %S" pname)
  in
  let add_wire pts = wires := Cell.wire Layer.Metal ~width:4 pts :: !wires in
  let pad_index = ref 0 in
  let place side k =
    let idx = !pad_index in
    incr pad_index;
    let count, span =
      match side with
      | Bottom | Top -> ((match side with Bottom -> nb | _ -> nt), width)
      | Left | Right -> ((match side with Left -> nl | _ -> nr), height)
    in
    let offset = ring + (((span - (2 * ring)) - (count * pitch)) / 2) in
    let pos = offset + (k * pitch) + ((pitch - pad_size) / 2) in
    let trans =
      match side with
      | Bottom -> Transform.translation pos 0
      | Top -> Transform.make ~orient:Transform.MX (Point.make pos height)
      | Left -> Transform.make ~orient:Transform.R270 (Point.make 0 (pos + pad_size))
      | Right -> Transform.make ~orient:Transform.R90 (Point.make width pos)
    in
    let inst = Cell.instantiate ~name:(Printf.sprintf "pad%d" idx) ~trans p in
    instances := inst :: !instances;
    let pin =
      Rect.center (Cell.port_in_parent inst (Cell.find_port p "pin")).Cell.rect
    in
    (match List.assoc_opt idx bind with
    | Some pname ->
      let target = core_port pname in
      (* L-route: continue in the stub direction to the target's lane,
         then turn *)
      let mid =
        match side with
        | Bottom | Top -> Point.make pin.Point.x target.Point.y
        | Left | Right -> Point.make target.Point.x pin.Point.y
      in
      if Point.equal pin mid || Point.equal mid target then
        add_wire [ pin; target ]
      else add_wire [ pin; mid; target ]
    | None ->
      (* unbound: stub stops 6 lambda short of the core *)
      let stop =
        match side with
        | Bottom -> Point.make pin.Point.x (core_y - 6)
        | Top -> Point.make pin.Point.x (core_y + core_h + 6)
        | Left -> Point.make (core_x - 6) pin.Point.y
        | Right -> Point.make (core_x + core_w + 6) pin.Point.y
      in
      add_wire [ pin; stop ])
  in
  for k = 0 to nb - 1 do
    place Bottom k
  done;
  for k = 0 to nr - 1 do
    place Right k
  done;
  for k = 0 to nt - 1 do
    place Top k
  done;
  for k = 0 to nl - 1 do
    place Left k
  done;
  let ports =
    List.filter_map
      (fun (i : Cell.inst) ->
        if i.inst_name = "core" then None
        else
          Some
            { (Cell.port_in_parent i (Cell.find_port p "pin")) with
              Cell.pname = i.inst_name
            })
      !instances
  in
  let chip =
    Cell.make ~name ~ports ~instances:(List.rev !instances) (List.rev !wires)
  in
  let core_area = Cell.area core in
  let chip_area = Cell.area chip in
  { chip
  ; pads
  ; core_area
  ; chip_area
  ; overhead = float_of_int chip_area /. float_of_int (max core_area 1)
  }

(* --- macro assembly ---------------------------------------------------
   The generalization of the pad frame: instead of one hand core, a row
   of per-module macros with typed interface pins, connected by a
   chip-level routing channel.  All pin geometry lives on a 14-lambda
   grid: macro pins (bottom edge of the channel) sit at even x, chip
   port pins (top edge) at odd x, so no routing column ever holds both
   a top and a bottom pin — the vertical constraint graph is empty and
   the channel is routable by construction. *)

let grid = 14 (* metal surround pitch of the channel router, times two *)
let stub_h = 4
let gutter = 2 * grid

let round_up n = (n + grid - 1) / grid * grid

(* [cell] translated to the origin with one poly pin stub per [pins]
   entry along its top edge at x = 0, 14, 28, ..., each exposed as a
   port of that name *)
let macro ~name ~pins cell =
  let body = Cell.translate_to_origin cell in
  let h = Cell.height body in
  let stubs =
    List.mapi
      (fun i pn ->
        let x = grid * i in
        let r = Rect.make x h (x + 2) (h + stub_h) in
        (Cell.box Layer.Poly r, Cell.port pn Layer.Poly r))
      pins
  in
  Cell.make ~name ~ports:(List.map snd stubs)
    ~instances:[ Cell.instantiate ~name:"body" body ]
    (List.map fst stubs)

type macro_spec =
  { mi_name : string  (** instance name, unique in the chip *)
  ; mi_pins : string list  (** bit-level pin names, signature order *)
  ; mi_cell : Cell.t  (** the module's DRC-clean layout *)
  }

type endpoint =
  | Chip of string
  | Pin of string * string

type net = { net_name : string; ends : endpoint list }

type packed =
  { core : Cell.t
  ; macro_count : int
  ; row_width : int
  ; row_height : int
  ; channel_tracks : int
  ; channel_height : int
  ; trunk_length : int
  }

let pack ~name ~macros ~chip_ports ~nets () =
  (match
     List.find_opt
       (fun m ->
         List.length (List.filter (fun m' -> m'.mi_name = m.mi_name) macros)
         > 1)
       macros
   with
  | Some m ->
    invalid_arg
      (Printf.sprintf "Assemble.pack: duplicate instance name %S" m.mi_name)
  | None -> ());
  (* one wrapper cell per distinct (module layout, pin list): two
     instances of the same module share the wrapper, hence the CIF
     symbol *)
  let wrappers = ref [] in
  let wrapper_for m =
    match
      List.find_opt (fun (c, pins, _) -> c == m.mi_cell && pins = m.mi_pins) !wrappers
    with
    | Some (_, _, w) -> w
    | None ->
      let w =
        macro
          ~name:("macro_" ^ m.mi_cell.Cell.name)
          ~pins:m.mi_pins m.mi_cell
      in
      wrappers := (m.mi_cell, m.mi_pins, w) :: !wrappers;
      w
  in
  let placed =
    (* (spec, wrapper, x) left to right, x on the grid *)
    let x = ref grid in
    List.map
      (fun m ->
        let w = wrapper_for m in
        let mx = !x in
        x := !x + round_up (max 1 (Cell.width w)) + gutter;
        (m, w, mx))
      macros
  in
  let row_height =
    List.fold_left (fun a (_, w, _) -> max a (Cell.height w)) 0 placed
  in
  let row_width =
    List.fold_left (fun a (_, w, x) -> max a (x + Cell.width w)) 0 placed
  in
  let width =
    max (round_up row_width + grid) ((grid * List.length chip_ports) + grid)
  in
  let pin_x (m, _, x) pin =
    let rec idx i = function
      | [] ->
        invalid_arg
          (Printf.sprintf "Assemble.pack: %s has no pin %S" m.mi_name pin)
      | p :: _ when p = pin -> i
      | _ :: rest -> idx (i + 1) rest
    in
    x + (grid * idx 0 m.mi_pins)
  in
  let chip_port_x p =
    let rec idx i = function
      | [] -> invalid_arg (Printf.sprintf "Assemble.pack: no chip port %S" p)
      | q :: _ when q = p -> i
      | _ :: rest -> idx (i + 1) rest
    in
    (grid * idx 0 chip_ports) + (grid / 2)
  in
  let top = ref [] and bottom = ref [] in
  List.iteri
    (fun netid n ->
      List.iter
        (fun e ->
          match e with
          | Chip p ->
            top := { Sc_route.Channel.x = chip_port_x p; net = netid } :: !top
          | Pin (iname, pin) -> (
            match
              List.find_opt (fun (m, _, _) -> m.mi_name = iname) placed
            with
            | None ->
              invalid_arg
                (Printf.sprintf "Assemble.pack: net %s names unknown instance %S"
                   n.net_name iname)
            | Some pl ->
              bottom :=
                { Sc_route.Channel.x = pin_x pl pin; net = netid } :: !bottom))
        n.ends)
    nets;
  let routed =
    Sc_route.Channel.route
      { Sc_route.Channel.top = List.rev !top
      ; bottom = List.rev !bottom
      ; width
      }
  in
  let ch = Sc_route.Channel.draw routed in
  let instances =
    List.map
      (fun (m, w, x) ->
        (* pin-stub tops aligned on the channel floor: shorter macros
           hang lower, every pin enters the channel at the same y *)
        Cell.instantiate ~name:m.mi_name
          ~trans:(Transform.translation x (row_height - Cell.height w))
          w)
      placed
    @ [ Cell.instantiate ~name:"channel"
          ~trans:(Transform.translation 0 row_height)
          ch
      ]
  in
  let port_y = row_height + routed.Sc_route.Channel.height in
  let ports, port_stubs =
    List.split
      (List.map
         (fun p ->
           let x = chip_port_x p in
           let r = Rect.make x port_y (x + 2) (port_y + stub_h) in
           (Cell.port p Layer.Poly r, Cell.box Layer.Poly r))
         chip_ports)
  in
  let core = Cell.make ~name ~ports ~instances port_stubs in
  { core
  ; macro_count = List.length macros
  ; row_width
  ; row_height
  ; channel_tracks = routed.Sc_route.Channel.tracks
  ; channel_height = routed.Sc_route.Channel.height
  ; trunk_length = routed.Sc_route.Channel.trunk_length
  }

let pp_packed ppf p =
  Format.fprintf ppf
    "core %s: %d macros, row %dx%d, channel %d tracks (h %d, wire %d)"
    p.core.Cell.name p.macro_count p.row_width p.row_height p.channel_tracks
    p.channel_height p.trunk_length
