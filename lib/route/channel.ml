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
  ; trunk_length : int
  ; pin_x : int array
  ; pin_top : bool array
  ; branches : int array
  ; first : int array
  ; last : int array
  ; track : int array
  ; throughs : int list
  }

exception Unroutable of string

let track_pitch = 7

(* Scratch space.  Routing a channel takes about a dozen temporary int
   arrays as long as its pin list, and a fresh array of more than 256
   words is made on the major heap: a chip's channels would keep the
   collector busy with them.  Each domain keeps one set, grown as
   needed and reused from channel to channel; a call that finds its
   domain's set in use (another thread of the same domain routing)
   takes a fresh one.  [ints s k n] is slot [k], at least [n] long, its
   contents left over from earlier channels. *)
type scratch = { slots : int array array; busy : bool Atomic.t }

let s_x = 0
and s_id = 1
and s_head = 2
and s_next = 3
and s_net = 4
and s_start = 5
and s_order = 6
and s_top = 7
and s_bottom = 8
and s_bucket = 9
and s_net_of = 10
and s_at = 11
and s_fill = 12
and s_x0 = 13
and s_x1 = 14
and s_starting = 15
and s_by_left = 16
and s_waiting = 17
and s_succ_at = 18
and s_sorted = 19
and s_placed = 20
and s_hash = 21

let fresh_scratch () = { slots = Array.make 22 [||]; busy = Atomic.make false }
let scratch_key = Domain.DLS.new_key fresh_scratch

let ints s k n =
  if Array.length s.slots.(k) < n then
    s.slots.(k) <- Array.make (Int.max n (2 * Array.length s.slots.(k))) 0;
  s.slots.(k)

let with_scratch f =
  let s = Domain.DLS.get scratch_key in
  if Atomic.compare_and_set s.busy false true then
    match f s with
    | r ->
      Atomic.set s.busy false;
      r
    | exception e ->
      Atomic.set s.busy false;
      raise e
  else f (fresh_scratch ())

(* Pins are numbered by input position: the top pins in list order,
   then the bottom ones ([k < ntop] is a top pin).  [number_nets] checks
   that each pin lies inside the channel, reads pin [k]'s x into
   [x.(k)] and gives the nets dense ids in order of first appearance,
   [id_of.(k)] being pin [k]'s; it returns their count [m].

   The segment order (see [route_in]) is the order in which
   [Hashtbl.iter] visits the nets of a [Hashtbl.create 16] that got each
   net on its first appearance, and [order.(0 .. m-1)] lists the ids
   so: bucket by bucket — [Hashtbl.hash] of the label modulo the bucket
   count that table has grown to, doubling whenever it holds more than
   twice as many nets as buckets — and newest first within a bucket, as
   [Hashtbl.add] prepends and resizing keeps each bucket's order.  The
   lookup table is flat arrays chained by the same hash. *)
let number_nets s spec ~n =
  let x = ints s s_x n and id_of = ints s s_id n in
  let cap = ref 1 in
  while !cap < n do
    cap := 2 * !cap
  done;
  let mask = !cap - 1 in
  let head = ints s s_head !cap in
  Array.fill head 0 !cap (-1);
  let next = ints s s_next n and net = ints s s_net n and hash = ints s s_hash n in
  let count = ref 0 in
  let rec register k = function
    | [] -> k
    | (p : pin) :: rest ->
      if p.x < 0 || p.x + 2 > spec.width then
        invalid_arg
          (Printf.sprintf "Channel.route: pin x=%d outside width %d" p.x spec.width);
      x.(k) <- p.x;
      let h = Hashtbl.hash p.net in
      let b = h land mask in
      let i = ref head.(b) in
      while !i >= 0 && net.(!i) <> p.net do
        i := next.(!i)
      done;
      if !i < 0 then begin
        i := !count;
        incr count;
        net.(!i) <- p.net;
        hash.(!i) <- h;
        next.(!i) <- head.(b);
        head.(b) <- !i
      end;
      id_of.(k) <- !i;
      register (k + 1) rest
  in
  ignore (register (register 0 spec.top) spec.bottom);
  let m = !count in
  let buckets = ref 16 in
  while m > 2 * !buckets do
    buckets := 2 * !buckets
  done;
  let mask = !buckets - 1 in
  let start = ints s s_start (!buckets + 1) in
  Array.fill start 0 (!buckets + 1) 0;
  for i = 0 to m - 1 do
    let b = hash.(i) land mask in
    start.(b + 1) <- start.(b + 1) + 1
  done;
  for b = 1 to !buckets do
    start.(b) <- start.(b) + start.(b - 1)
  done;
  let order = ints s s_order m in
  for i = m - 1 downto 0 do
    let b = hash.(i) land mask in
    order.(start.(b)) <- i;
    start.(b) <- start.(b) + 1
  done;
  m

(* [by_x s slot x lo len ~width] — the pins [lo .. lo+len-1] ordered by
   x, ties in pin order, in scratch slot [slot].  Pins of one edge at
   least 7 apart (all valid ones) fall into distinct 7-lambda buckets,
   so when the buckets are few enough one pass over them orders the
   edge; two pins sharing a bucket (a spacing violation) or a channel
   much wider than its pins fall back to sorting. *)
let by_x s slot x lo len ~width =
  let order = ints s slot len in
  let buckets = (width / 7) + 1 in
  let bucketed () =
    let bucket = ints s s_bucket buckets in
    Array.fill bucket 0 buckets (-1);
    let clash = ref false in
    for i = lo to lo + len - 1 do
      let b = x.(i) / 7 in
      if bucket.(b) >= 0 then clash := true else bucket.(b) <- i
    done;
    if not !clash then begin
      let k = ref 0 in
      for b = 0 to buckets - 1 do
        if bucket.(b) >= 0 then begin
          order.(!k) <- bucket.(b);
          incr k
        end
      done
    end;
    not !clash
  in
  if not (len > 0 && buckets <= (4 * len) + 64 && bucketed ()) then begin
    let sorted = Array.init len (fun i -> lo + i) in
    Array.stable_sort (fun a b -> Int.compare x.(a) x.(b)) sorted;
    Array.blit sorted 0 order 0 len
  end;
  order

(* Checks the spacing of each edge and returns, in column order —
   ascending x, and where a bottom and a top pin share a column, the
   bottom one first — each pin's x and edge, with its net id in scratch
   slot [s_net_of].  Each edge is sorted once, and that one order
   serves the spacing check, each net's pin order and the shared-column
   walk of the constraint graph. *)
let columns s ~n ~ntop ~width =
  let x = s.slots.(s_x) and id_of = s.slots.(s_id) in
  let sorted what slot lo len =
    let order = by_x s slot x lo len ~width in
    for k = 1 to len - 1 do
      if x.(order.(k)) - x.(order.(k - 1)) < 7 then
        invalid_arg
          (Printf.sprintf "Channel.route: %s pins at %d and %d closer than 7" what
             x.(order.(k - 1)) x.(order.(k)))
    done;
    order
  in
  let nb = n - ntop in
  let top = sorted "top" s_top 0 ntop in
  let bottom = sorted "bottom" s_bottom ntop nb in
  let pin_x = Array.make n 0 and pin_top = Array.make n false in
  let net_of = ints s s_net_of n in
  let t = ref 0 and b = ref 0 in
  for k = 0 to n - 1 do
    let i =
      if !b < nb && (!t = ntop || x.(bottom.(!b)) <= x.(top.(!t))) then begin
        incr b;
        bottom.(!b - 1)
      end
      else begin
        incr t;
        top.(!t - 1)
      end
    in
    pin_x.(k) <- x.(i);
    pin_top.(k) <- i < ntop;
    net_of.(k) <- id_of.(i)
  done;
  (pin_x, pin_top)

(* Vertical constraint graph: in a column with a top pin of net a and a
   bottom pin of net b (a <> b), every a-segment at that column must lie
   above every b-segment there.  Such a column is a bottom pin followed
   by a top pin at the same x in column order.  The segments that must
   wait for [i] are [succ.(at.(i)) .. succ.(at.(i + 1) - 1)], and
   [waiting.(j)] counts the edges into [j].  A pin lies on at most two
   segments (a dogleg's shared end), so each constraint column adds at
   most four edges; a channel without such columns builds no graph. *)
let constraints s ~pin_x ~pin_top ~branches ~first ~last =
  let n = Array.length pin_x and nsegs = Array.length first in
  let net_of = s.slots.(s_net_of) in
  let constrained k =
    pin_top.(k) && pin_x.(k - 1) = pin_x.(k) && net_of.(k - 1) <> net_of.(k)
  in
  let waiting = ints s s_waiting nsegs and at = ints s s_succ_at (nsegs + 1) in
  Array.fill waiting 0 nsegs 0;
  Array.fill at 0 (nsegs + 1) 0;
  let any = ref false in
  for k = 1 to n - 1 do
    if constrained k then any := true
  done;
  if not !any then (at, [||], waiting)
  else begin
    let on_a = Array.make n (-1) and on_b = Array.make n (-1) in
    for s = 0 to nsegs - 1 do
      for b = first.(s) to last.(s) do
        let k = branches.(b) in
        if on_a.(k) < 0 then on_a.(k) <- s else on_b.(k) <- s
      done
    done;
    let on k f =
      if on_a.(k) >= 0 then f on_a.(k);
      if on_b.(k) >= 0 then f on_b.(k)
    in
    let edges f =
      for k = 1 to n - 1 do
        if constrained k then on k (fun i -> on (k - 1) (fun j -> f i j))
      done
    in
    edges (fun i j ->
        at.(i + 1) <- at.(i + 1) + 1;
        waiting.(j) <- waiting.(j) + 1);
    for i = 1 to nsegs do
      at.(i) <- at.(i) + at.(i - 1)
    done;
    let succ = Array.make at.(nsegs) 0 in
    let fill = Array.sub at 0 nsegs in
    edges (fun i j ->
        succ.(fill.(i)) <- j;
        fill.(i) <- fill.(i) + 1);
    (at, succ, waiting)
  end

(* Top-down left-edge with constraints.  Scratch slot [s_by_left] lists
   the segments by left edge, ties in segment order.  Each track walks
   the unplaced ones in that order and takes every segment whose
   constraint predecessors all sit on strictly earlier tracks and whose
   trunk clears the one taken before it on the track.  Taken segments
   are spliced out of the walk ({!Next_free}), and after each take the
   walk jumps by binary search to the first left edge that clears the
   new trunk: an unconstrained channel costs O(log n) per segment, and
   a constrained one steps over each waiting segment once per track it
   waits. *)
let assign_tracks s ~dogleg ~nsegs (at, succ, waiting) track_of =
  let x0 = s.slots.(s_x0) and x1 = s.slots.(s_x1) and order = s.slots.(s_by_left) in
  let sorted_x0 = ints s s_sorted nsegs in
  for p = 0 to nsegs - 1 do
    sorted_x0.(p) <- x0.(order.(p))
  done;
  (* the first position >= p whose segment starts at or after x *)
  let clearing p x =
    let lo = ref p and hi = ref nsegs in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if sorted_x0.(mid) < x then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let unplaced = Next_free.create nsegs in
  let placed = ints s s_placed nsegs in
  let remaining = ref nsegs in
  let track = ref 0 in
  while !remaining > 0 do
    let nplaced = ref 0 in
    let p = ref (Next_free.find unplaced 0) in
    while !p < nsegs do
      let i = order.(!p) in
      if waiting.(i) = 0 then begin
        track_of.(i) <- !track;
        placed.(!nplaced) <- i;
        incr nplaced;
        Next_free.take unplaced !p;
        (* occupied intervals include contact surrounds: the next trunk's
           x0 - 1 must lie 3 past this one's x1 + 3 *)
        p := Next_free.find unplaced (clearing (!p + 1) (x1.(i) + 7))
      end
      else p := Next_free.find unplaced (!p + 1)
    done;
    if !nplaced = 0 then
      raise
        (Unroutable
           (if dogleg then "cyclic vertical constraints despite doglegs"
            else "cyclic vertical constraints (try dogleg)"));
    (* released only now: a successor never shares its predecessor's track *)
    remaining := !remaining - !nplaced;
    for q = 0 to !nplaced - 1 do
      let i = placed.(q) in
      for e = at.(i) to at.(i + 1) - 1 do
        waiting.(succ.(e)) <- waiting.(succ.(e)) - 1
      done
    done;
    incr track
  done;
  !track

(* Each net's pins are [branches.(at.(id)) .. branches.(at.(id + 1) - 1)]
   in column order.  The segment order fixes left-edge ties and the
   order of the drawn elements, so it must not drift: segments come out
   in reverse iteration order of the net table (see [number_nets]), each
   net's own segments right to left.  A net with just a top and a bottom
   pin in one column is a through-branch, not a segment; without doglegs
   a net is one segment spanning all its pins, with doglegs one per
   consecutive pin pair. *)
let route_in s ~dogleg spec =
  let ntop = List.length spec.top in
  let n = ntop + List.length spec.bottom in
  let nnets = number_nets s spec ~n in
  let pin_x, pin_top = columns s ~n ~ntop ~width:spec.width in
  let net_of = s.slots.(s_net_of) and order = s.slots.(s_order) in
  let at = ints s s_at (nnets + 1) in
  Array.fill at 0 (nnets + 1) 0;
  for k = 0 to n - 1 do
    at.(net_of.(k) + 1) <- at.(net_of.(k) + 1) + 1
  done;
  for id = 1 to nnets do
    at.(id) <- at.(id) + at.(id - 1)
  done;
  let branches = Array.make n 0 in
  let fill = ints s s_fill nnets in
  Array.blit at 0 fill 0 nnets;
  for k = 0 to n - 1 do
    let id = net_of.(k) in
    branches.(fill.(id)) <- k;
    fill.(id) <- fill.(id) + 1
  done;
  let pins id = at.(id + 1) - at.(id) in
  let through id =
    pins id = 2 && pin_x.(branches.(at.(id))) = pin_x.(branches.(at.(id) + 1))
  in
  let segments_of id =
    if pins id < 2 || through id then 0 else if dogleg then pins id - 1 else 1
  in
  let nsegs = ref 0 and throughs = ref [] in
  for v = 0 to nnets - 1 do
    let id = order.(v) in
    nsegs := !nsegs + segments_of id;
    if through id then throughs := pin_x.(branches.(at.(id))) :: !throughs
  done;
  let nsegs = !nsegs in
  let first = Array.make nsegs 0 and last = Array.make nsegs 0 in
  let x0 = ints s s_x0 nsegs and x1 = ints s s_x1 nsegs in
  let sg = ref 0 in
  for v = nnets - 1 downto 0 do
    let id = order.(v) in
    for j = segments_of id - 1 downto 0 do
      first.(!sg) <- at.(id) + j;
      last.(!sg) <- (if dogleg then at.(id) + j + 1 else at.(id + 1) - 1);
      x0.(!sg) <- pin_x.(branches.(first.(!sg)));
      x1.(!sg) <- pin_x.(branches.(last.(!sg)));
      incr sg
    done
  done;
  (* Segments by left edge, ties in segment order, without sorting: a
     pin starts at most one segment and column order ascends in x, so a
     walk over the columns lists them; the one tie is a bottom and a top
     pin sharing a column, which both start segments. *)
  let starting = ints s s_starting n in
  Array.fill starting 0 n (-1);
  for sg = 0 to nsegs - 1 do
    starting.(branches.(first.(sg))) <- sg
  done;
  let by_left = ints s s_by_left nsegs and listed = ref 0 in
  let list sg =
    if sg >= 0 then begin
      by_left.(!listed) <- sg;
      incr listed
    end
  in
  let k = ref 0 in
  while !k < n do
    let a = starting.(!k) in
    if !k + 1 < n && pin_x.(!k + 1) = pin_x.(!k) then begin
      let b = starting.(!k + 1) in
      if b >= 0 && b < a then (list b; list a) else (list a; list b);
      k := !k + 2
    end
    else begin
      list a;
      incr k
    end
  done;
  let track = Array.make nsegs 0 in
  let tracks =
    assign_tracks s ~dogleg ~nsegs
      (constraints s ~pin_x ~pin_top ~branches ~first ~last)
      track
  in
  let height = max 4 (track_pitch * tracks) in
  let trunk_length = ref 0 in
  for sg = 0 to nsegs - 1 do
    trunk_length := !trunk_length + (x1.(sg) - x0.(sg))
  done;
  Sc_obs.Obs.count "route.tracks" tracks;
  Sc_obs.Obs.count "route.height" height;
  { height
  ; tracks
  ; trunk_length = !trunk_length
  ; pin_x
  ; pin_top
  ; branches
  ; first
  ; last
  ; track
  ; throughs = !throughs
  }

let route ?(dogleg = false) spec =
  Sc_obs.Obs.span "channel" @@ fun () -> with_scratch (fun s -> route_in s ~dogleg spec)

let draw r =
  (* trunk y of a track, numbered from the top *)
  let trunk_y k = r.height - 5 - (track_pitch * k) in
  let elements = ref [] in
  let add e = elements := e :: !elements in
  for s = 0 to Array.length r.track - 1 do
    let ty = trunk_y r.track.(s) in
    let x0 = r.pin_x.(r.branches.(r.first.(s))) in
    let x1 = r.pin_x.(r.branches.(r.last.(s))) in
    (* a degenerate trunk (x0 = x1) is just the contact pad *)
    add (Cell.box Layer.Metal (Rect.make (x0 - 1) ty (x1 + 3) (ty + 3)));
    for b = r.first.(s) to r.last.(s) do
      let k = r.branches.(b) in
      let x = r.pin_x.(k) in
      (* contact cut joining branch and trunk *)
      add (Cell.box Layer.Contact (Rect.make x ty (x + 2) (ty + 2)));
      add (Cell.box Layer.Metal (Rect.make (x - 1) (ty - 1) (x + 3) (ty + 3)));
      if r.pin_top.(k) then add (Cell.box Layer.Poly (Rect.make x ty (x + 2) r.height))
      else add (Cell.box Layer.Poly (Rect.make x 0 (x + 2) (ty + 2)))
    done
  done;
  List.iter
    (fun x -> add (Cell.box Layer.Poly (Rect.make x 0 (x + 2) r.height)))
    r.throughs;
  Cell.make ~name:"channel" (List.rev !elements)
