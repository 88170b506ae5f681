open Sc_geom
open Sc_tech
open Sc_layout

type violation =
  { rule : Rules.rule
  ; where : Rect.t
  ; detail : string
  }

(* --- rectangle cover: is [target] fully covered by the union of [covers]?
   Recursive splitting: find a cover overlapping the target and recurse
   on the at most four pieces of the target outside it. *)
let rec covered target covers =
  Rect.is_empty target
  ||
  match List.find_opt (fun c -> Rect.overlaps c target) covers with
  | None -> false
  | Some c -> List.for_all (fun p -> covered p covers) (Rect.minus target c)

let layers = Array.of_list Layer.all

(* the deck's neighbour rules: spacing by [Layer.index] (0 = none), the
   cross-layer spacing rules and the enclosure rules *)
let spacing = Array.map Rules.min_spacing layers

let cross_rules =
  List.filter_map
    (fun (la, lb) ->
      let s = Rules.cross_spacing la lb in
      if s > 0 && not (Layer.equal la lb) then Some (la, lb, s) else None)
    [ (Layer.Poly, Layer.Diffusion) ]
  |> Array.of_list

let enclosure_rules =
  List.filter_map
    (fun (inner, outer) ->
      let m = Rules.enclosure ~inner ~outer in
      if m > 0 then Some (inner, outer, m) else None)
    [ (Layer.Contact, Layer.Metal); (Layer.Glass, Layer.Metal) ]
  |> Array.of_list

(* Two shapes further apart than this never meet in a spacing rule
   (a violation is a separation below the rule, so at most [s - 1]). *)
let reach =
  Array.fold_left
    (fun acc (_, _, s) -> Int.max acc (s - 1))
    (Array.fold_left (fun acc s -> Int.max acc (s - 1)) 0 spacing)
    cross_rules

(* --- the deck's findings, and their one order ---------------------- *)

(* What the deck found in one layout, in its coordinates and in no
   particular order except [narrow]: per layer the rectangles below the
   minimum width, in flattening order; per layer the pairs of distinct
   regions closer than the spacing rule; per cross rule its [(la, lb)]
   pairs; per enclosure rule the inner rectangles left uncovered. *)
type findings =
  { narrow : Rect.t list array
  ; close : (Rect.t * Rect.t) list array
  ; crossing : (Rect.t * Rect.t) list array
  ; bare : Rect.t list array
  }

let by_pair cmp (a, b) (c, d) =
  match cmp a c with 0 -> cmp b d | c -> c

(* the longest prefix of [l] whose elements satisfy [p], and the rest *)
let rec split_while p = function
  | x :: rest when p x ->
    let run, rest = split_while p rest in
    (x :: run, rest)
  | l -> ([], l)

(* [pairs] sorted by (witness, other) lists each pair once per copy of
   its two rectangles.  A scan meets the copies of a repeated witness
   one after the other, each with all its partners in turn; so a
   witness with [m = copies w] copies and several partners gets [m]
   rounds of its partners, each partner once per copy of its own. *)
let per_copy ~copies pairs =
  let rec go = function
    | [] -> []
    | (w, _) :: _ as l ->
      let group, rest = split_while (fun (w', _) -> w' = w) l in
      let rec runs = function
        | [] -> []
        | (_, o) :: _ as l ->
          let run, rest = split_while (fun (_, o') -> o' = o) l in
          (List.hd run, List.length run) :: runs rest
      in
      let partners = runs group in
      let group =
        if List.length partners < 2 || List.for_all (fun (_, n) -> n = 1) partners then group
        else begin
          let m = copies w in
          List.concat
            (List.init m (fun _ ->
                 List.concat_map (fun (p, n) -> List.init (n / m) (fun _ -> p)) partners))
        end
      in
      group @ go rest
  in
  go pairs

(* The violation list of [f], in the order checker.mli promises: each
   neighbour rule in the order a scan of its sorted rectangles meets
   them, a function of the geometry alone however the findings were
   collected.  [copies l r] counts the rectangles equal to [r] on the
   layer of index [l]. *)
let violations ~copies f =
  let widths =
    List.concat_map
      (fun l ->
        let w = Rules.min_width l in
        List.map
          (fun r ->
            { rule = Rules.Min_width (l, w)
            ; where = r
            ; detail =
                Printf.sprintf "feature is %d lambda wide"
                  (Int.min (Rect.width r) (Rect.height r))
            })
          f.narrow.(Layer.index l))
      Layer.all
  in
  let spacings =
    List.concat_map
      (fun l ->
        let i = Layer.index l in
        let s = spacing.(i) in
        f.close.(i)
        |> List.map (fun (a, b) -> if Rect.compare a b <= 0 then (a, b) else (b, a))
        |> List.sort (by_pair Rect.compare)
        |> per_copy ~copies:(copies i)
        |> List.map (fun (a, b) ->
               { rule = Rules.Min_spacing (l, l, s)
               ; where = a
               ; detail =
                   Printf.sprintf "to %s: %d < %d" (Rect.to_string b)
                     (Rect.separation a b) s
               }))
      Layer.all
  in
  (* a cross pair is ordered by its members in the merge of both
     layers: by xmin, [lb] first on ties, then [Rect.compare] *)
  let merged (r, on_a) (r', on_a') =
    match Int.compare r.Rect.xmin r'.Rect.xmin with
    | 0 -> ( match Bool.compare on_a on_a' with 0 -> Rect.compare r r' | c -> c)
    | c -> c
  in
  let crossings =
    List.concat
      (List.mapi
         (fun k (la, lb, s) ->
           let copies (r, on_a) = copies (Layer.index (if on_a then la else lb)) r in
           f.crossing.(k)
           |> List.map (fun (a, b) ->
                  let x = (a, true) and y = (b, false) in
                  if merged x y <= 0 then (x, y) else (y, x))
           |> List.sort (by_pair merged)
           |> per_copy ~copies
           |> List.map (fun (x, y) ->
                  let (a, _), (b, _) = if snd x then (x, y) else (y, x) in
                  { rule = Rules.Min_spacing (la, lb, s)
                  ; where = a
                  ; detail =
                      Printf.sprintf "to %s on %s: %d < %d" (Rect.to_string b)
                        (Layer.to_string lb) (Rect.separation a b) s
                  }))
         (Array.to_list cross_rules))
  in
  let enclosures =
    List.concat
      (List.mapi
         (fun k (inner, outer, m) ->
           List.sort Rect.compare f.bare.(k)
           |> List.map (fun r ->
                  { rule = Rules.Min_enclosure (inner, outer, m)
                  ; where = r
                  ; detail =
                      Printf.sprintf "not enclosed by %s with margin %d"
                        (Layer.to_string outer) m
                  }))
         (Array.to_list enclosure_rules))
  in
  widths @ spacings @ crossings @ enclosures

(* --- the kernel: the deck on one set of rectangles ------------------ *)

(* [f i] for every rectangle [i] of [idx] touching [w] *)
let each_touching idx w f =
  let rects = Rect_index.rects idx in
  if Array.length rects <= 32 then
    Array.iteri (fun i r -> if Rect.touches_or_overlaps r w then f i) rects
  else begin
    let near = Rect_index.cursor idx in
    for k = 0 to Rect_index.near near ~within:0 w - 1 do
      f (Rect_index.hit near k)
    done
  end

(* Runs a batch of tasks, returning their results in order: on a pool,
   or in the calling task. *)
type runner = { run : 'a. string -> (unit -> 'a) list -> 'a list }

let on_pool pool =
  { run = (fun label tasks -> Sc_par.Pool.run ~label pool tasks) }

let inline = { run = (fun _ tasks -> List.map (fun f -> f ()) tasks) }

(* [split n parts] is [0, n) in at most [parts] contiguous ranges *)
let split n parts =
  let parts = Int.max 1 (Int.min parts n) in
  let per = (n + parts - 1) / parts in
  List.init parts (fun k -> (k * per, Int.min n ((k + 1) * per)))
  |> List.filter (fun (lo, hi) -> lo < hi)

(* The deck on [rects] (by [Layer.index], none empty, any order), with
   rectangles named by their position: the per-layer indexes and region
   labels it built, the narrow rectangles in array order, per layer the
   index pairs closer than the spacing rule in distinct regions, per
   cross rule the close [(la, lb)] pairs that do not overlap, and per
   enclosure rule the inner rectangles not covered by the outer layer.

   The rules run as independent tasks: first one per layer (width,
   index, regions), then one per spacing layer and per cross rule, and
   [shards] slices of each enclosure rule's inner rectangles.  Each
   neighbour rule tests a pair once, from its lower-numbered member,
   among the candidates the index returns within the rule distance. *)
type scan =
  { index : Rect_index.t array
  ; region : int array array
  ; narrow : Rect.t list array
  ; close_pairs : (int * int) list array
  ; crossing_pairs : (Rect.t * Rect.t) list array
  ; bare_inners : int list array
  }

let scan runner ~shards rects =
  let per_layer =
    runner.run "drc.layer"
      (List.map
         (fun l () ->
           let i = Layer.index l in
           let w = Rules.min_width l in
           let narrow =
             Array.fold_right
               (fun r acc ->
                 if Int.min (Rect.width r) (Rect.height r) < w then r :: acc else acc)
               rects.(i) []
           in
           let index = Rect_index.create rects.(i) in
           let region =
             if spacing.(i) > 0 then Rect_index.components index else [||]
           in
           (narrow, index, region))
         Layer.all)
    |> Array.of_list
  in
  let index = Array.map (fun (_, x, _) -> x) per_layer in
  let region = Array.map (fun (_, _, r) -> r) per_layer in
  let pairs_within ~within a b keep =
    let near = Rect_index.cursor b in
    let found = ref [] in
    Array.iteri
      (fun i r ->
        for k = Rect_index.near near ~within r - 1 downto 0 do
          let j = Rect_index.hit near k in
          if keep i j then found := (i, j) :: !found
        done)
      a;
    !found
  in
  let spacing_tasks =
    List.filter_map
      (fun l ->
        let i = Layer.index l in
        let s = spacing.(i) in
        if s > 0 then
          Some
            (fun () ->
              let reg = region.(i) in
              `Close
                ( i
                , pairs_within ~within:(s - 1) rects.(i) index.(i) (fun a b ->
                      b > a && reg.(a) <> reg.(b)) ))
        else None)
      Layer.all
  in
  let cross_tasks =
    List.mapi
      (fun k (la, lb, s) () ->
        let a = rects.(Layer.index la) and b = rects.(Layer.index lb) in
        `Crossing
          ( k
          , pairs_within ~within:(s - 1) a index.(Layer.index lb) (fun i j ->
                not (Rect.overlaps a.(i) b.(j)))
            |> List.map (fun (i, j) -> (a.(i), b.(j))) ))
      (Array.to_list cross_rules)
  in
  (* the candidate covers of an inner rectangle are the outer rectangles
     touching it grown by the margin *)
  let enclosure_tasks =
    List.concat
      (List.mapi
         (fun k (inner, outer, m) ->
           let inners = rects.(Layer.index inner) in
           let outers = index.(Layer.index outer) in
           let outer_rects = Rect_index.rects outers in
           List.map
             (fun (lo, hi) () ->
               let near = Rect_index.cursor outers in
               let found = ref [] in
               for i = lo to hi - 1 do
                 let target = Rect.inflate m inners.(i) in
                 let candidates = ref [] in
                 for h = Rect_index.near near ~within:0 target - 1 downto 0 do
                   candidates := outer_rects.(Rect_index.hit near h) :: !candidates
                 done;
                 if not (covered target !candidates) then found := i :: !found
               done;
               `Bare (k, !found))
             (split (Array.length inners) shards))
         (Array.to_list enclosure_rules))
  in
  let close_pairs = Array.make Layer.count [] in
  let crossing_pairs = Array.make (Array.length cross_rules) [] in
  let bare_inners = Array.make (Array.length enclosure_rules) [] in
  List.iter
    (function
      | `Close (i, ps) -> close_pairs.(i) <- ps
      | `Crossing (k, ps) -> crossing_pairs.(k) <- ps
      | `Bare (k, is) -> bare_inners.(k) <- is @ bare_inners.(k))
    (runner.run "drc.shard" (spacing_tasks @ cross_tasks @ enclosure_tasks));
  { index
  ; region
  ; narrow = Array.map (fun (n, _, _) -> n) per_layer
  ; close_pairs
  ; crossing_pairs
  ; bare_inners
  }

(* the non-empty rectangles of each layer, by [Layer.index], in
   flattening order ([flat] lists the last flattened first) *)
let layer_arrays flat =
  let count = Array.make Layer.count 0 in
  let each f =
    List.iter
      (fun (fb : Flatten.flat_box) ->
        if not (Rect.is_empty fb.rect) then f (Layer.index fb.layer) fb.rect)
      flat
  in
  each (fun i _ -> count.(i) <- count.(i) + 1);
  let layers = Array.map (fun n -> Array.make n Rect.zero) count in
  each (fun i r ->
      count.(i) <- count.(i) - 1;
      layers.(i).(count.(i)) <- r);
  layers

let check_flat ?pool flat =
  let pool = match pool with Some p -> p | None -> Sc_par.Pool.default () in
  let rects = layer_arrays flat in
  let s = scan (on_pool pool) ~shards:(4 * Sc_par.Pool.size pool) rects in
  let pair l (i, j) = (rects.(l).(i), rects.(l).(j)) in
  let copies l r =
    let n = ref 0 in
    each_touching s.index.(l) r (fun i -> if Rect.equal rects.(l).(i) r then incr n);
    !n
  in
  violations ~copies
    { narrow = s.narrow
    ; close = Array.mapi (fun l ps -> List.map (pair l) ps) s.close_pairs
    ; crossing = s.crossing_pairs
    ; bare =
        Array.mapi
          (fun k is ->
            let inner, _, _ = enclosure_rules.(k) in
            List.map (fun i -> rects.(Layer.index inner).(i)) is)
          s.bare_inners
    }

(* --- the hierarchical check ----------------------------------------- *)

(* One distinct cell: its own rectangles and the kernel's scan of them,
   its instances that have geometry, their bounding boxes in the cell's
   coordinates, and the views of their cells. *)
type view =
  { own : Rect.t array array
  ; own_box : Rect.t option
  ; local : scan
  ; insts : Cell.inst array
  ; boxes : Rect.t array
  ; inst_index : Rect_index.t
  ; children : int array
  }

(* A cell's regions on each spacing layer [l], over its nodes: own
   rectangle [i] is node [local.region.(l).(i)] (its own region's
   representative), region [c] of instance [m]'s cell is node
   [offset.(l).(m) + c], and [label.(l)] numbers the nodes' regions in
   the whole cell [0 .. count.(l) - 1]. *)
type regions =
  { offset : int array array
  ; label : int array array
  ; count : int array
  }

(* A spacing pair whose regions are distinct in the cell seen so far,
   in the cell's coordinates and regions: context may still join them. *)
type gap = { layer : int; a : Rect.t; b : Rect.t; ra : int; rb : int }

(* What a cell's subtree yields at each of its placements, in the
   cell's coordinates.  [gaps] and [bare] (inner rectangles not yet
   covered, with their enclosure rule) depend on context and are
   decided again in every parent; [crossing] holds the cross-rule pairs
   whose members first meet in this cell, definite like the width rule;
   the [*_below] counts cover the subtree, so expansion can skip
   subtrees that have nothing to report. *)
type verdict =
  { regions : regions
  ; gaps : gap list
  ; bare : (int * Rect.t) list
  ; crossing : (int * Rect.t * Rect.t) list
  ; narrow_below : int
  ; crossing_below : int
  }

let make_view id_of (c : Cell.t) =
  let own = Array.make Layer.count [] in
  let add l r =
    if not (Rect.is_empty r) then own.(Layer.index l) <- r :: own.(Layer.index l)
  in
  List.iter
    (function
      | Cell.Box (l, r) -> add l r
      | Cell.Wire (l, p) -> List.iter (add l) (Path.to_rects p))
    c.elements;
  let own = Array.map (fun rs -> Rect.array_of_list (List.rev rs)) own in
  let own_box =
    Array.fold_left
      (Array.fold_left (fun acc r ->
           Some (match acc with None -> r | Some b -> Rect.union_bbox b r)))
      None own
  in
  let insts =
    Array.of_list (List.filter (fun (i : Cell.inst) -> i.cell.bbox <> None) c.instances)
  in
  let boxes = Array.make (Array.length insts) Rect.zero in
  Array.iteri
    (fun m (i : Cell.inst) ->
      boxes.(m) <- Transform.apply_rect i.trans (Cell.bbox_or_zero i.cell))
    insts;
  { own
  ; own_box
  ; local = scan inline ~shards:1 own
  ; insts
  ; boxes
  ; inst_index = Rect_index.create boxes
  ; children = Array.map (fun (i : Cell.inst) -> id_of i.cell) insts
  }

let own_region view r l i = r.label.(l).(view.local.region.(l).(i))

let inst_region r l m c = r.label.(l).(r.offset.(l).(m) + c)

(* [gather views regions v t w wanted f] calls [f l r c] for every
   rectangle on a [wanted] layer [l] of view [v]'s flattened geometry
   that touches [w] (in [v]'s coordinates): [r] is the rectangle seen
   through [t], and [c] its region in [v] (-1 on layers without
   spacing), by the [regions] of each view.  Only instances whose
   bounding box touches [w] are entered. *)
let rec gather views regions v t w wanted f =
  let view = views.(v) and r = regions v in
  Array.iteri
    (fun l rects ->
      if wanted.(l) && Array.length rects > 0 then
        each_touching view.local.index.(l) w (fun i ->
            f l (Transform.apply_rect t rects.(i))
              (if spacing.(l) > 0 then own_region view r l i else -1)))
    view.own;
  each_touching view.inst_index w (fun m ->
      let inst = view.insts.(m) in
      gather views regions view.children.(m)
        (Transform.compose t inst.trans)
        (Transform.apply_rect (Transform.invert inst.trans) w)
        wanted
        (fun l rect c -> f l rect (if c < 0 then c else inst_region r l m c)))

let all_layers = Array.make Layer.count true

let outer_only =
  Array.map
    (fun (_, outer, _) -> Array.init Layer.count (fun l -> l = Layer.index outer))
    enclosure_rules

let inter a b =
  Rect.make
    (Int.max a.Rect.xmin b.Rect.xmin) (Int.max a.Rect.ymin b.Rect.ymin)
    (Int.min a.Rect.xmax b.Rect.xmax) (Int.min a.Rect.ymax b.Rect.ymax)

(* The interaction windows of a view: [(m, m')] for each pair of
   instances whose bounding boxes, grown by [reach], touch, and
   [(m, -1)] for each instance whose grown box touches the grown box of
   the own rectangles. *)
let windows view =
  let grown = Array.make (Array.length view.boxes) Rect.zero in
  Array.iteri (fun m b -> grown.(m) <- Rect.inflate reach b) view.boxes;
  let near = Rect_index.cursor (Rect_index.create grown) in
  let pairs = ref [] in
  Array.iteri
    (fun m g ->
      for k = Rect_index.near near ~within:0 g - 1 downto 0 do
        let m' = Rect_index.hit near k in
        if m' > m then pairs := (m, m') :: !pairs
      done)
    grown;
  let with_own =
    match view.own_box with
    | None -> []
    | Some b ->
      let b = Rect.inflate reach b in
      List.filter
        (fun m -> Rect.touches_or_overlaps grown.(m) b)
        (List.init (Array.length grown) Fun.id)
  in
  List.rev_append !pairs (List.map (fun m -> (m, -1)) with_own)

(* What one window yields for its cell: unions and gaps between nodes
   (see {!regions}) by layer, and definite cross-rule pairs. *)
type met =
  { unions : (int * int * int) list
  ; met_gaps : (int * Rect.t * Rect.t * int * int) list
  ; met_crossing : (int * Rect.t * Rect.t) list
  }

(* [f x y] for the pairs of [xs] and [ys] that may be within [reach]:
   every pair, or those an index over [ys] finds when both are long *)
let each_pair xs ys f =
  let ys = Array.of_list ys in
  if List.compare_length_with xs 16 <= 0 || Array.length ys <= 16 then
    List.iter (fun x -> Array.iter (f x) ys) xs
  else begin
    let near = Rect_index.cursor (Rect_index.create (Array.map fst ys)) in
    List.iter
      (fun x ->
        for k = 0 to Rect_index.near near ~within:reach (fst x) - 1 do
          f x ys.(Rect_index.hit near k)
        done)
      xs
  end

(* Check window [(m, m')] of view [v], whose nodes start at [offset]:
   the rectangles of instance [m] against those of [m'] (or, for
   [m' = -1], the own rectangles), each fetched only inside the window,
   pair by pair. *)
let meet views verdicts offset v (m, m') =
  let view = views.(v) in
  (* the rectangles of instance [m] (own ones for [-1]) touching [w], by
     layer, with their nodes *)
  let fetch m w =
    let found = Array.make Layer.count [] in
    let add l r node = found.(l) <- (r, node) :: found.(l) in
    if m < 0 then
      Array.iteri
        (fun l rects ->
          each_touching view.local.index.(l) w (fun i ->
              add l rects.(i) (if spacing.(l) > 0 then view.local.region.(l).(i) else -1)))
        view.own
    else begin
      let inst = view.insts.(m) in
      gather views
        (fun u -> verdicts.(u).regions)
        view.children.(m) inst.trans
        (Transform.apply_rect (Transform.invert inst.trans) w)
        all_layers
        (fun l r c -> add l r (if c < 0 then c else offset.(l).(m) + c))
    end;
    found
  in
  let grown m =
    Rect.inflate reach (if m < 0 then Option.get view.own_box else view.boxes.(m))
  in
  let w = inter (grown m) (grown m') in
  let a = fetch m w and b = fetch m' w in
  let unions = ref [] and gaps = ref [] and crossing = ref [] in
  Array.iteri
    (fun l s ->
      if s > 0 then
        each_pair a.(l) b.(l) (fun (p, np) (q, nq) ->
            let sep = Rect.separation p q in
            if sep = 0 then unions := (l, np, nq) :: !unions
            else if sep < s then gaps := (l, p, q, np, nq) :: !gaps))
    spacing;
  Array.iteri
    (fun k (la, lb, s) ->
      let cross (p, _) (q, _) =
        if Rect.separation p q < s && not (Rect.overlaps p q) then
          crossing := (k, p, q) :: !crossing
      in
      let la = Layer.index la and lb = Layer.index lb in
      each_pair a.(la) b.(lb) cross;
      each_pair b.(la) a.(lb) cross)
    cross_rules;
  { unions = !unions; met_gaps = !gaps; met_crossing = !crossing }

(* [offset.(l).(m)]: view [v]'s first node for instance [m]'s regions on
   layer [l], after the own rectangles; and the node count per layer *)
let node_offsets views verdicts v =
  let view = views.(v) in
  let total = Array.map Array.length view.own in
  let offset =
    Array.init Layer.count (fun l ->
        Array.map
          (fun child ->
            let o = total.(l) in
            total.(l) <- o + verdicts.(child).regions.count.(l);
            o)
          view.children)
  in
  (offset, total)

(* Is inner rectangle [r] of enclosure rule [k] covered by the outer
   layer of view [v]'s whole flattened geometry? *)
let covered_in views regions v k r =
  let _, _, m = enclosure_rules.(k) in
  let target = Rect.inflate m r in
  let covers = ref [] in
  gather views regions v Transform.identity target outer_only.(k) (fun _ r _ ->
      covers := r :: !covers);
  covered target !covers

(* Settle view [v] once its instances are settled: its regions (own
   regions and instance regions joined by the windows' unions), then
   the gaps and uncovered inner rectangles found here or inherited from
   each instance, kept only while they stay open. *)
let settle views verdicts (offset, total) v mets =
  let view = views.(v) in
  (* a layer's regions, numbered in the order of their first node *)
  let regions_on l =
    let uf = Union_find.create total.(l) in
    List.iter
      (fun met ->
        List.iter (fun (l', a, b) -> if l' = l then Union_find.union uf a b) met.unions)
      mets;
    let id = Array.make total.(l) (-1) and next = ref 0 in
    let label =
      Array.map
        (fun root ->
          if id.(root) < 0 then begin
            id.(root) <- !next;
            incr next
          end;
          id.(root))
        (Union_find.labels uf)
    in
    (label, !next)
  in
  let both =
    Array.init Layer.count (fun l -> if spacing.(l) > 0 then regions_on l else ([||], 0))
  in
  let r = { offset; label = Array.map fst both; count = Array.map snd both } in
  let label = r.label in
  let keep layer a b ra rb acc = if ra <> rb then { layer; a; b; ra; rb } :: acc else acc in
  let gaps = ref [] in
  Array.iteri
    (fun l ps ->
      List.iter
        (fun (i, j) ->
          gaps :=
            keep l view.own.(l).(i) view.own.(l).(j) (own_region view r l i)
              (own_region view r l j) !gaps)
        ps)
    view.local.close_pairs;
  List.iter
    (fun met ->
      List.iter
        (fun (l, a, b, na, nb) -> gaps := keep l a b label.(l).(na) label.(l).(nb) !gaps)
        met.met_gaps)
    mets;
  let bare = ref [] in
  let regions u = if u = v then r else verdicts.(u).regions in
  let still_bare k rect =
    if not (Array.length view.insts > 0 && covered_in views regions v k rect) then
      bare := (k, rect) :: !bare
  in
  Array.iteri
    (fun k is ->
      let inner, _, _ = enclosure_rules.(k) in
      List.iter (fun i -> still_bare k view.own.(Layer.index inner).(i)) is)
    view.local.bare_inners;
  Array.iteri
    (fun m child ->
      let t = view.insts.(m).trans in
      let d = verdicts.(child) in
      List.iter
        (fun g ->
          gaps :=
            keep g.layer (Transform.apply_rect t g.a) (Transform.apply_rect t g.b)
              (inst_region r g.layer m g.ra) (inst_region r g.layer m g.rb) !gaps)
        d.gaps;
      List.iter (fun (k, rect) -> still_bare k (Transform.apply_rect t rect)) d.bare)
    view.children;
  let crossing =
    List.concat
      (Array.to_list
         (Array.mapi (fun k ps -> List.map (fun (a, b) -> (k, a, b)) ps) view.local.crossing_pairs))
    @ List.concat_map (fun met -> met.met_crossing) mets
  in
  let below f = Array.fold_left (fun acc child -> acc + f verdicts.(child)) 0 view.children in
  { regions = r
  ; gaps = !gaps
  ; bare = !bare
  ; crossing
  ; narrow_below =
      Array.fold_left (fun acc n -> acc + List.length n) 0 view.local.narrow
      + below (fun d -> d.narrow_below)
  ; crossing_below = List.length crossing + below (fun d -> d.crossing_below)
  }

let check ?pool cell =
  Sc_obs.Obs.span "drc" @@ fun () ->
  let pool = match pool with Some p -> p | None -> Sc_par.Pool.default () in
  (* the distinct cells, children before parents *)
  let cells = Array.of_list (Cell.all_cells cell) in
  let n = Array.length cells in
  let ids = Cell.Tbl.create n in
  Array.iteri (fun v c -> Cell.Tbl.replace ids c v) cells;
  let id_of c = Cell.Tbl.find ids c in
  let views =
    Array.of_list
      (Sc_par.Pool.run ~label:"drc.cells" pool
         (Array.to_list (Array.map (fun c () -> make_view id_of c) cells)))
  in
  (* settle level by level: a cell's windows need its instances' regions *)
  let height = Array.make n 0 in
  Array.iteri
    (fun v view ->
      height.(v) <- Array.fold_left (fun h c -> Int.max h (height.(c) + 1)) 0 view.children)
    views;
  let verdicts =
    Array.make n
      { regions = { offset = [||]; label = [||]; count = [||] }
      ; gaps = []; bare = []; crossing = []; narrow_below = 0; crossing_below = 0 }
  in
  let mets = Array.make n [] in
  for h = 0 to Array.fold_left Int.max 0 height do
    let level = List.filter (fun v -> height.(v) = h) (List.init n Fun.id) in
    let offsets = List.map (node_offsets views verdicts) level in
    (* a list cut into slices: an array of this many fresh tuples would
       force a minor collection *)
    let work =
      List.concat
        (List.map2
           (fun v (offset, _) -> List.map (fun w -> (v, offset, w)) (windows views.(v)))
           level offsets)
    in
    let rec slices work = function
      | [] -> []
      | (lo, hi) :: ranges ->
        let rec take k l =
          match l with
          | x :: rest when k > 0 ->
            let slice, rest = take (k - 1) rest in
            (x :: slice, rest)
          | _ -> ([], l)
        in
        let slice, rest = take (hi - lo) work in
        slice :: slices rest ranges
    in
    if work <> [] then
      Sc_par.Pool.run ~label:"drc.windows" pool
        (List.map
           (fun slice () ->
             List.map (fun (v, offset, w) -> (v, meet views verdicts offset v w)) slice)
           (slices work (split (List.length work) (4 * Sc_par.Pool.size pool))))
      |> List.iter (List.iter (fun (v, met) -> mets.(v) <- met :: mets.(v)));
    Sc_par.Pool.run ~label:"drc.context" pool
      (List.map2 (fun v offs () -> settle views verdicts offs v mets.(v)) level offsets)
    |> List.iter2 (fun v d -> verdicts.(v) <- d) level
  done;
  (* expand the definite findings over every placement; what is still
     open at the root is a violation *)
  let vs =
    Sc_obs.Obs.span "drc.context" @@ fun () ->
    let narrow = Array.make Layer.count [] in
    let crossing = Array.make (Array.length cross_rules) [] in
    let rec expand v t =
      let d = verdicts.(v) and view = views.(v) in
      if d.narrow_below > 0 || d.crossing_below > 0 then begin
        Array.iteri
          (fun l rs ->
            List.iter (fun r -> narrow.(l) <- Transform.apply_rect t r :: narrow.(l)) rs)
          view.local.narrow;
        List.iter
          (fun (k, a, b) ->
            crossing.(k) <-
              (Transform.apply_rect t a, Transform.apply_rect t b) :: crossing.(k))
          d.crossing;
        Array.iteri
          (fun m (inst : Cell.inst) ->
            expand view.children.(m) (Transform.compose t inst.trans))
          view.insts
      end
    in
    let root = id_of cell in
    expand root Transform.identity;
    let close = Array.make Layer.count [] in
    List.iter (fun g -> close.(g.layer) <- (g.a, g.b) :: close.(g.layer)) verdicts.(root).gaps;
    let bare = Array.make (Array.length enclosure_rules) [] in
    List.iter (fun (k, r) -> bare.(k) <- r :: bare.(k)) verdicts.(root).bare;
    let copies l r =
      let n = ref 0 in
      gather views
        (fun u -> verdicts.(u).regions)
        root Transform.identity r
        (Array.init Layer.count (( = ) l))
        (fun _ r' _ -> if Rect.equal r r' then incr n);
      !n
    in
    violations ~copies { narrow = Array.map List.rev narrow; close; crossing; bare }
  in
  Sc_obs.Obs.count "drc.violations" (List.length vs);
  vs

let is_clean cell = check cell = []

let pp_violation ppf v =
  Format.fprintf ppf "%a at %a: %s" Rules.pp_rule v.rule Rect.pp v.where v.detail

let report ppf = function
  | [] -> Format.fprintf ppf "DRC clean@."
  | vs ->
    Format.fprintf ppf "%d DRC violations:@." (List.length vs);
    List.iter (fun v -> Format.fprintf ppf "  %a@." pp_violation v) vs
