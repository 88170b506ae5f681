(* The channel router and pin assignment as they were before the
   near-linear rewrite: per-track filter-and-sort left-edge, a
   per-column Hashtbl for the vertical constraint graph, linear-probing
   pin slots and per-boundary rescans of every net.  Kept verbatim
   (minus the observability span) as the differential oracle for
   [Sc_route.Channel.route], [Sc_route.Channel.draw] and
   [Sc_place.Placer.route_channels] in test_place_route.ml, the way
   test_drc.ml keeps its all-pairs deck.  It routes and draws in one
   step, as the router did then, so its result carries the layout. *)

open Sc_geom
open Sc_tech
open Sc_layout
open Sc_route.Channel

type routed =
  { height : int
  ; tracks : int
  ; layout : Cell.t
  ; trunk_length : int
  }

let track_pitch = 7

type side = Top | Bottom

type segment =
  { net : int
  ; x0 : int
  ; x1 : int
  ; pins : (int * side) list
  ; id : int
  }

let validate spec =
  let all = spec.top @ spec.bottom in
  List.iter
    (fun p ->
      if p.x < 0 || p.x + 2 > spec.width then
        invalid_arg (Printf.sprintf "Channel.route: pin x=%d outside width %d" p.x spec.width))
    all;
  let check_side pins what =
    let sorted = List.sort (fun a b -> Int.compare a.x b.x) pins in
    let rec go = function
      | a :: (b :: _ as rest) ->
        if b.x - a.x < 7 then
          invalid_arg
            (Printf.sprintf "Channel.route: %s pins at %d and %d closer than 7" what a.x b.x);
        go rest
      | [ _ ] | [] -> ()
    in
    go sorted
  in
  check_side spec.top "top";
  check_side spec.bottom "bottom"

(* segment ids are placeholders here; [route] renumbers every segment
   with its own channel-wide counter *)
let segments_of_net ~dogleg net pins =
  let pins = List.sort (fun (x, _) (y, _) -> Int.compare x y) pins in
  match pins with
  | [] | [ _ ] -> []
  | _ when not dogleg ->
    let xs = List.map fst pins in
    [ { net
      ; x0 = List.fold_left min max_int xs
      ; x1 = List.fold_left max min_int xs
      ; pins
      ; id = 0
      }
    ]
  | _ ->
    let rec pairs = function
      | (xa, sa) :: ((xb, sb) :: _ as rest) ->
        { net; x0 = xa; x1 = xb; pins = [ (xa, sa); (xb, sb) ]; id = 0 }
        :: pairs rest
      | [ _ ] | [] -> []
    in
    pairs pins

let route ?(dogleg = false) spec =
  validate spec;
  (* group pins by net *)
  let by_net = Hashtbl.create 16 in
  let add side (p : pin) =
    let cur = try Hashtbl.find by_net p.net with Not_found -> [] in
    Hashtbl.replace by_net p.net ((p.x, side) :: cur)
  in
  List.iter (add Top) spec.top;
  List.iter (add Bottom) spec.bottom;
  (* through nets: two pins, same column, opposite sides *)
  let throughs = ref [] in
  let segments = ref [] in
  let seg_id = ref 0 in
  Hashtbl.iter
    (fun net pins ->
      match pins with
      | [ (xa, Top); (xb, Bottom) ] | [ (xa, Bottom); (xb, Top) ] when xa = xb ->
        throughs := xa :: !throughs
      | _ ->
        List.iter
          (fun s ->
            incr seg_id;
            segments := { s with id = !seg_id } :: !segments)
          (segments_of_net ~dogleg net pins))
    by_net;
  let segs = Array.of_list !segments in
  let nsegs = Array.length segs in
  (* vertical constraint graph between segments: in a column with a top pin
     of net a and a bottom pin of net b (a <> b), every a-segment at that
     column must be above every b-segment at that column *)
  let at_column = Hashtbl.create 32 in
  Array.iteri
    (fun i s ->
      List.iter
        (fun (x, side) ->
          let cur = try Hashtbl.find at_column x with Not_found -> [] in
          Hashtbl.replace at_column x ((i, side, s.net) :: cur))
        s.pins)
    segs;
  let preds = Array.make nsegs [] in
  Hashtbl.iter
    (fun _x entries ->
      List.iter
        (fun (i, si, ni) ->
          List.iter
            (fun (j, sj, nj) ->
              if ni <> nj && si = Top && sj = Bottom then
                (* i above j: i is a predecessor of j in top-down filling *)
                preds.(j) <- i :: preds.(j))
            entries)
        entries)
    at_column;
  (* top-down left-edge with constraints *)
  let track_of = Array.make nsegs (-1) in
  let remaining = ref nsegs in
  let track = ref 0 in
  while !remaining > 0 do
    let placeable =
      List.filter
        (fun i ->
          track_of.(i) = -1
          && List.for_all
               (fun j -> track_of.(j) >= 0 && track_of.(j) < !track)
               preds.(i))
        (List.init nsegs (fun i -> i))
    in
    if placeable = [] then
      raise
        (Unroutable
           (if dogleg then "cyclic vertical constraints despite doglegs"
            else "cyclic vertical constraints (try dogleg)"));
    let sorted =
      List.sort (fun a b -> Int.compare segs.(a).x0 segs.(b).x0) placeable
    in
    let last_end = ref min_int in
    List.iter
      (fun i ->
        (* effective occupied interval includes contact surrounds *)
        let left = segs.(i).x0 - 1 and right = segs.(i).x1 + 3 in
        if left >= !last_end + 3 then begin
          track_of.(i) <- !track;
          decr remaining;
          last_end := right
        end)
      sorted;
    incr track
  done;
  let ntracks = !track in
  let height = max 4 (track_pitch * ntracks) in
  (* trunk y of a track, numbered from the top *)
  let trunk_y k = height - 5 - (track_pitch * k) in
  let elements = ref [] in
  let add e = elements := e :: !elements in
  let trunk_length = ref 0 in
  Array.iteri
    (fun i s ->
      let ty = trunk_y track_of.(i) in
      if s.x1 > s.x0 then begin
        add (Cell.box Layer.Metal (Rect.make (s.x0 - 1) ty (s.x1 + 3) (ty + 3)));
        trunk_length := !trunk_length + (s.x1 - s.x0)
      end
      else
        (* degenerate trunk: just the contact pad *)
        add (Cell.box Layer.Metal (Rect.make (s.x0 - 1) ty (s.x0 + 3) (ty + 3)));
      List.iter
        (fun (x, side) ->
          (* contact cut joining branch and trunk *)
          add (Cell.box Layer.Contact (Rect.make x ty (x + 2) (ty + 2)));
          add (Cell.box Layer.Metal (Rect.make (x - 1) (ty - 1) (x + 3) (ty + 3)));
          match side with
          | Top -> add (Cell.box Layer.Poly (Rect.make x ty (x + 2) height))
          | Bottom -> add (Cell.box Layer.Poly (Rect.make x 0 (x + 2) (ty + 2))))
        s.pins)
    segs;
  List.iter
    (fun x -> add (Cell.box Layer.Poly (Rect.make x 0 (x + 2) height)))
    !throughs;
  let layout = Cell.make ~name:"channel" (List.rev !elements) in
  { height; tracks = ntracks; layout; trunk_length = !trunk_length }

(* [Placer.route_channels], returning the channels and their total
   height *)
let route_channels (pl : Sc_place.Placer.placement) =
  let open Sc_place.Placer in
  let grid = 14 in
  let centre i = pl.x.(i) + (pl.problem.widths.(i) / 2) in
  let channels = ref [] in
  for boundary = 0 to pl.nrows - 2 do
    (* nets with gates on both sides of the boundary *)
    let crossing =
      Array.to_list pl.problem.nets
      |> List.filter_map (fun net ->
             let below = Array.exists (fun i -> pl.row.(i) <= boundary) net in
             let above = Array.exists (fun i -> pl.row.(i) > boundary) net in
             if below && above then Some net else None)
    in
    if crossing <> [] then begin
      let slot_of used x =
        (* snap to the grid, then probe for a free slot *)
        let s = ref (max 0 (x / grid)) in
        while Hashtbl.mem used !s do
          incr s
        done;
        Hashtbl.replace used !s ();
        !s
      in
      let used_bottom = Hashtbl.create 16 and used_top = Hashtbl.create 16 in
      let pins =
        List.mapi
          (fun netid net ->
            let side_centre keep =
              let xs =
                Array.to_list net
                |> List.filter keep
                |> List.map centre
              in
              List.fold_left ( + ) 0 xs / max 1 (List.length xs)
            in
            let bx = side_centre (fun i -> pl.row.(i) <= boundary) in
            let tx = side_centre (fun i -> pl.row.(i) > boundary) in
            let bslot = slot_of used_bottom bx in
            let tslot = slot_of used_top tx in
            ( { Sc_route.Channel.x = bslot * grid; net = netid }
            , { Sc_route.Channel.x = (tslot * grid) + (grid / 2); net = netid } ))
          crossing
      in
      let bottom = List.map fst pins and top = List.map snd pins in
      let width =
        List.fold_left
          (fun m (p : Sc_route.Channel.pin) -> max m (p.x + 2))
          0 (bottom @ top)
      in
      channels := route { top; bottom; width } :: !channels
    end
  done;
  let channels = List.rev !channels in
  (channels, List.fold_left (fun a (c : routed) -> a + c.height) 0 channels)

