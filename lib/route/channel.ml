open Sc_geom
open Sc_tech
open Sc_layout

type pin = { x : int; net : int }

type spec =
  { top : pin list
  ; bottom : pin list
  ; width : int
  }

type routed =
  { height : int
  ; tracks : int
  ; layout : Cell.t
  ; trunk_length : int
  }

exception Unroutable of string

let track_pitch = 7

type side = Top | Bottom

(* A routable unit: one trunk interval of one net, with the pins it must
   drop branches to (positions in the column order below).  Without
   doglegs a net is one segment spanning all pins; with doglegs, one
   segment per consecutive pin pair. *)
type segment =
  { net : int
  ; x0 : int
  ; x1 : int  (** >= x0 *)
  ; pins : int list
  }

(* Every pin of the channel in column order; where a bottom and a top
   pin share a column the bottom one comes first.  Each edge is sorted
   once, and that one order serves the spacing check, each net's pin
   order and the shared-column walk of the constraint graph. *)
let columns spec =
  let check (p : pin) =
    if p.x < 0 || p.x + 2 > spec.width then
      invalid_arg (Printf.sprintf "Channel.route: pin x=%d outside width %d" p.x spec.width)
  in
  List.iter check spec.top;
  List.iter check spec.bottom;
  let sorted what pins =
    let pins = Array.of_list pins in
    Array.stable_sort (fun (a : pin) b -> Int.compare a.x b.x) pins;
    for k = 1 to Array.length pins - 1 do
      if pins.(k).x - pins.(k - 1).x < 7 then
        invalid_arg
          (Printf.sprintf "Channel.route: %s pins at %d and %d closer than 7" what
             pins.(k - 1).x pins.(k).x)
    done;
    pins
  in
  let top = sorted "top" spec.top in
  let bottom = sorted "bottom" spec.bottom in
  let nt = Array.length top and nb = Array.length bottom in
  let t = ref 0 and b = ref 0 in
  Array.init (nt + nb) (fun _ ->
      if !b < nb && (!t = nt || bottom.(!b).x <= top.(!t).x) then begin
        incr b;
        (bottom.(!b - 1), Bottom)
      end
      else begin
        incr t;
        (top.(!t - 1), Top)
      end)

let segments_of_net ~dogleg (pins : (pin * side) array) net = function
  | [] | [ _ ] -> []
  | first :: rest as ks when not dogleg ->
    let last = List.fold_left (fun _ k -> k) first rest in
    [ { net; x0 = (fst pins.(first)).x; x1 = (fst pins.(last)).x; pins = ks } ]
  | ks ->
    let rec pairs = function
      | a :: (b :: _ as rest) ->
        { net; x0 = (fst pins.(a)).x; x1 = (fst pins.(b)).x; pins = [ a; b ] } :: pairs rest
      | [ _ ] | [] -> []
    in
    pairs ks

(* The segment order fixes left-edge ties and the order of the layout's
   elements, so it must not drift: segments come out in reverse
   [Hashtbl.iter] order of a net table filled in pin order (top pins,
   then bottom).  A net with just a top and a bottom pin in one column
   is a through-branch, not a segment. *)
let segments ~dogleg spec (pins : (pin * side) array) =
  let ids = Hashtbl.create 16 in
  let register (p : pin) =
    if not (Hashtbl.mem ids p.net) then Hashtbl.add ids p.net (Hashtbl.length ids)
  in
  List.iter register spec.top;
  List.iter register spec.bottom;
  let of_net = Array.make (Hashtbl.length ids) [] in
  for k = Array.length pins - 1 downto 0 do
    let id = Hashtbl.find ids (fst pins.(k)).net in
    of_net.(id) <- k :: of_net.(id)
  done;
  let throughs = ref [] in
  let segments = ref [] in
  Hashtbl.iter
    (fun net id ->
      match of_net.(id) with
      | [ b; t ] when (fst pins.(b)).x = (fst pins.(t)).x ->
        throughs := (fst pins.(b)).x :: !throughs
      | ks ->
        List.iter (fun s -> segments := s :: !segments) (segments_of_net ~dogleg pins net ks))
    ids;
  (Array.of_list !segments, !throughs)

(* Vertical constraint graph: in a column with a top pin of net a and a
   bottom pin of net b (a <> b), every a-segment at that column must lie
   above every b-segment there.  Such a column is a bottom pin followed
   by a top pin at the same x in column order.  [succs.(i)] lists the
   segments that must wait for [i], [waiting.(j)] counts the edges into
   [j]. *)
let constraints (pins : (pin * side) array) segs =
  let nsegs = Array.length segs in
  let at = Array.make (Array.length pins) [] in
  Array.iteri (fun i s -> List.iter (fun k -> at.(k) <- i :: at.(k)) s.pins) segs;
  let succs = Array.make nsegs [] and waiting = Array.make nsegs 0 in
  for k = 1 to Array.length pins - 1 do
    let (b : pin), _ = pins.(k - 1) and (t : pin), side = pins.(k) in
    if side = Top && b.x = t.x && b.net <> t.net then
      List.iter
        (fun i ->
          List.iter
            (fun j ->
              succs.(i) <- j :: succs.(i);
              waiting.(j) <- waiting.(j) + 1)
            at.(k - 1))
        at.(k)
  done;
  (succs, waiting)

(* Top-down left-edge with constraints.  Segments are sorted by left
   edge once (stably, so ties keep segment order).  Each track walks the
   unplaced ones in that order and takes every segment whose constraint
   predecessors all sit on strictly earlier tracks and whose trunk
   clears the one taken before it on the track.  Taken segments are
   spliced out of the walk ({!Next_free}), and after each take the walk
   jumps by binary search to the first left edge that clears the new
   trunk: an unconstrained channel costs one sort plus O(log n) per
   segment, and a constrained one steps over each waiting segment once
   per track it waits. *)
let assign_tracks ~dogleg pins segs =
  let nsegs = Array.length segs in
  let succs, waiting = constraints pins segs in
  let order = Array.init nsegs Fun.id in
  Array.stable_sort (fun a b -> Int.compare segs.(a).x0 segs.(b).x0) order;
  let x0 = Array.map (fun i -> segs.(i).x0) order in
  (* the first position >= p whose segment starts at or after x *)
  let clearing p x =
    let lo = ref p and hi = ref nsegs in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if x0.(mid) < x then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let unplaced = Next_free.create nsegs in
  let track_of = Array.make nsegs (-1) in
  let remaining = ref nsegs in
  let track = ref 0 in
  while !remaining > 0 do
    let placed = ref [] in
    let p = ref (Next_free.find unplaced 0) in
    while !p < nsegs do
      let i = order.(!p) in
      if waiting.(i) = 0 then begin
        track_of.(i) <- !track;
        placed := i :: !placed;
        Next_free.take unplaced !p;
        (* occupied intervals include contact surrounds: the next trunk's
           x0 - 1 must lie 3 past this one's x1 + 3 *)
        p := Next_free.find unplaced (clearing (!p + 1) (segs.(i).x1 + 7))
      end
      else p := Next_free.find unplaced (!p + 1)
    done;
    if !placed = [] then
      raise
        (Unroutable
           (if dogleg then "cyclic vertical constraints despite doglegs"
            else "cyclic vertical constraints (try dogleg)"));
    (* released only now: a successor never shares its predecessor's track *)
    List.iter
      (fun i ->
        decr remaining;
        List.iter (fun j -> waiting.(j) <- waiting.(j) - 1) succs.(i))
      !placed;
    incr track
  done;
  (track_of, !track)

let route ?(dogleg = false) spec =
  Sc_obs.Obs.span "channel" @@ fun () ->
  let pins = columns spec in
  let segs, throughs = segments ~dogleg spec pins in
  let track_of, ntracks = assign_tracks ~dogleg pins segs in
  let height = max 4 (track_pitch * ntracks) in
  (* trunk y of a track, numbered from the top *)
  let trunk_y k = height - 5 - (track_pitch * k) in
  let elements = ref [] in
  let add e = elements := e :: !elements in
  let trunk_length = ref 0 in
  Array.iteri
    (fun i s ->
      let ty = trunk_y track_of.(i) in
      (* a degenerate trunk (x0 = x1) is just the contact pad *)
      add (Cell.box Layer.Metal (Rect.make (s.x0 - 1) ty (s.x1 + 3) (ty + 3)));
      trunk_length := !trunk_length + (s.x1 - s.x0);
      List.iter
        (fun k ->
          let ({ x; _ } : pin), side = pins.(k) in
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
    throughs;
  let layout = Cell.make ~name:"channel" (List.rev !elements) in
  Sc_obs.Obs.count "route.tracks" ntracks;
  Sc_obs.Obs.count "route.height" height;
  { height; tracks = ntracks; layout; trunk_length = !trunk_length }

let river ~width pairs =
  let top = List.mapi (fun i (_, xt) -> { x = xt; net = i }) pairs in
  let bottom = List.mapi (fun i (xb, _) -> { x = xb; net = i }) pairs in
  route { top; bottom; width }
