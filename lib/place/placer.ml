open Sc_netlist

type problem =
  { kinds : Gate.kind array
  ; widths : int array
  ; names : string array
  ; nets : int array array
  }

type placement =
  { problem : problem
  ; x : int array
  ; row : int array
  ; nrows : int
  ; row_width : int
  }

(* No array here is made from a fresh block: [Array.make] or
   [Array.of_list] of more than 256 young blocks would force a minor
   collection.  An item's touches are consecutive (its output, then its
   inputs), so a repeated (net, item) pair is always at the head of the
   net's list. *)
let problem_of_circuit c =
  let f = Circuit.flatten c in
  let n = List.length f.Circuit.gates in
  let kinds = Array.make n Gate.Const0 and widths = Array.make n 0 in
  let names = Array.make n "" in
  let by_net = Hashtbl.create 64 in
  let touch net item =
    match Hashtbl.find_opt by_net net with
    | Some (i :: _) when i = item -> ()
    | cur -> Hashtbl.replace by_net net (item :: Option.value cur ~default:[])
  in
  List.iteri
    (fun idx (g : Circuit.gate_inst) ->
      kinds.(idx) <- g.kind;
      widths.(idx) <- (Sc_stdcell.Library.get g.kind).Sc_stdcell.Library.width;
      names.(idx) <- g.gname;
      touch g.out idx;
      Array.iter (fun n -> touch n idx) g.ins)
    f.Circuit.gates;
  let multi =
    Hashtbl.fold (fun _ items k -> match items with [] | [ _ ] -> k | _ -> k + 1) by_net 0
  in
  let nets = Array.make multi [||] in
  ignore
    (Hashtbl.fold
       (fun _ items k ->
         match items with
         | [] | [ _ ] -> k
         | _ ->
           nets.(k - 1) <- Array.of_list items;
           k - 1)
       by_net multi);
  { kinds; widths; names; nets }

let default_rows p =
  let n = Array.length p.kinds in
  max 1 (int_of_float (sqrt (float_of_int (max n 1))))

(* Fold an item order into serpentine rows and assign x positions. *)
let fold_rows p order nrows =
  let n = Array.length order in
  let per_row = max 1 ((n + nrows - 1) / nrows) in
  let x = Array.make n 0 in
  let row = Array.make n 0 in
  let row_width = ref 0 in
  let idx = ref 0 in
  for r = 0 to nrows - 1 do
    let count = min per_row (n - !idx) in
    let items = Array.sub order !idx (max count 0) in
    (* serpentine: reverse odd rows so chains stay short at the turn *)
    let items = if r land 1 = 1 then (Array.of_list (List.rev (Array.to_list items))) else items in
    let cursor = ref 0 in
    Array.iter
      (fun item ->
        x.(item) <- !cursor;
        row.(item) <- r;
        cursor := !cursor + p.widths.(item))
      items;
    row_width := max !row_width !cursor;
    idx := !idx + count
  done;
  { problem = p; x; row; nrows; row_width = !row_width }

let random ?(seed = 42) ?nrows p =
  let n = Array.length p.kinds in
  let nrows = match nrows with Some r -> r | None -> default_rows p in
  let rng = Random.State.make [| seed |] in
  let order = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  fold_rows p order nrows

let ordered ?nrows p =
  let n = Array.length p.kinds in
  let nrows = match nrows with Some r -> r | None -> default_rows p in
  (* barycentre iterations on a 1-D abstract coordinate.  Item [i]'s
     neighbour sum is its nets' position sums less its own position once
     per net, over [degree.(i)] (net, other member) pairs.  Positions are
     whole numbers (indices, then ranks), so every sum is exact and
     equals the sum over the pairs. *)
  let pos = Array.init n float_of_int in
  let degree = Array.make n 0 in
  Array.iter
    (fun net ->
      let d = Array.length net - 1 in
      Array.iter (fun a -> degree.(a) <- degree.(a) + d) net)
    p.nets;
  let nbr = Array.make n 0.0 and ranked = Array.make n 0 in
  for _pass = 1 to 12 do
    Array.fill nbr 0 n 0.0;
    for k = 0 to Array.length p.nets - 1 do
      let net = p.nets.(k) in
      let sum = ref 0.0 in
      for m = 0 to Array.length net - 1 do
        sum := !sum +. pos.(net.(m))
      done;
      for m = 0 to Array.length net - 1 do
        let a = net.(m) in
        nbr.(a) <- nbr.(a) +. (!sum -. pos.(a))
      done
    done;
    for i = 0 to n - 1 do
      if degree.(i) > 0 then
        pos.(i) <- (pos.(i) +. (nbr.(i) /. float_of_int degree.(i))) /. 2.0
    done;
    (* re-rank to keep positions spread *)
    for i = 0 to n - 1 do
      ranked.(i) <- i
    done;
    Heapsort.by_key pos ranked;
    Array.iteri (fun rank item -> pos.(item) <- float_of_int rank) ranked
  done;
  let order = Array.init n (fun i -> i) in
  Heapsort.by_key pos order;
  fold_rows p order nrows

(* the library cell height plus a nominal 30-lambda routing channel *)
let row_pitch = Sc_stdcell.Nmos.cell_height + 30

(* the half-perimeter of one net's item centres, one pass in ints *)
let net_hpwl pl net =
  let { problem = { widths; _ }; x; row; _ } = pl in
  let xmin = ref max_int and xmax = ref min_int in
  let ymin = ref max_int and ymax = ref min_int in
  for k = 0 to Array.length net - 1 do
    let i = net.(k) in
    let cx = x.(i) + (widths.(i) / 2) and cy = row.(i) * row_pitch in
    if cx < !xmin then xmin := cx;
    if cx > !xmax then xmax := cx;
    if cy < !ymin then ymin := cy;
    if cy > !ymax then ymax := cy
  done;
  !xmax - !xmin + (!ymax - !ymin)

(* the place pass replays this on every recorded hit, so it allocates
   nothing *)
let hpwl pl =
  let nets = pl.problem.nets in
  let total = ref 0 in
  for ni = 0 to Array.length nets - 1 do
    total := !total + net_hpwl pl nets.(ni)
  done;
  !total

(* Swap descent with incremental cost: each item knows its nets, each
   net caches its half-perimeter, and a candidate swap re-prices only
   the nets touching the two items.  The RNG stream and the acceptance
   rule (delta <= 0 is exactly the old [c <= cost]) are unchanged, so
   the walk — and the resulting placement — is identical to the full
   recompute it replaces, at O(affected nets) instead of O(all nets)
   per candidate. *)
let improve_cost ?(iters = 2000) pl =
  let n = Array.length pl.problem.kinds in
  if n < 2 then (pl, hpwl pl)
  else begin
    let x = Array.copy pl.x and row = Array.copy pl.row in
    let current = { pl with x; row } in
    let nets = pl.problem.nets in
    let nnets = Array.length nets in
    let member = Array.make n [] in
    Array.iteri
      (fun ni net -> Array.iter (fun i -> member.(i) <- ni :: member.(i)) net)
      nets;
    let cost_of_net ni = net_hpwl current nets.(ni) in
    let net_cost = Array.init nnets cost_of_net in
    let cost = ref (Array.fold_left ( + ) 0 net_cost) in
    (* per-candidate scratch: stamp dedups the two items' net lists *)
    let stamp = Array.make nnets (-1) in
    let epoch = ref 0 in
    let rng = Random.State.make [| 7 |] in
    for _ = 1 to iters do
      let i = Random.State.int rng n and j = Random.State.int rng n in
      if i <> j && pl.problem.widths.(i) = pl.problem.widths.(j) then begin
        (* swap equal-width items: positions exchange exactly *)
        let xi = x.(i) and ri = row.(i) in
        x.(i) <- x.(j);
        row.(i) <- row.(j);
        x.(j) <- xi;
        row.(j) <- ri;
        incr epoch;
        let affected = ref [] in
        let note ni =
          if stamp.(ni) <> !epoch then begin
            stamp.(ni) <- !epoch;
            affected := ni :: !affected
          end
        in
        List.iter note member.(i);
        List.iter note member.(j);
        let delta = ref 0 in
        let repriced =
          List.map
            (fun ni ->
              let c = cost_of_net ni in
              delta := !delta + c - net_cost.(ni);
              (ni, c))
            !affected
        in
        if !delta <= 0 then begin
          cost := !cost + !delta;
          List.iter (fun (ni, c) -> net_cost.(ni) <- c) repriced
        end
        else begin
          let xi = x.(i) and ri = row.(i) in
          x.(i) <- x.(j);
          row.(i) <- row.(j);
          x.(j) <- xi;
          row.(j) <- ri
        end
      end
    done;
    (current, !cost)
  end

let improve ?iters pl = fst (improve_cost ?iters pl)

let best_of ?(seeds = 4) ?iters ?nrows p =
  Sc_obs.Obs.span "place.restart" @@ fun () ->
  let start pl = improve_cost ?iters pl in
  (* strict < keeps the earliest start on ties *)
  fst
    (List.fold_left
       (fun (bp, bc) k ->
         let cp, cc = start (random ~seed:(100 + k) ?nrows p) in
         if cc < bc then (cp, cc) else (bp, bc))
       (start (ordered ?nrows p))
       (List.init seeds Fun.id))

let to_layout ~name pl =
  let open Sc_geom in
  let n = Array.length pl.problem.kinds in
  if Sc_obs.Obs.enabled () then begin
    Sc_obs.Obs.gauge "place.hpwl" (hpwl pl);
    Sc_obs.Obs.gauge "place.rows" pl.nrows;
    Sc_obs.Obs.gauge "place.cells" n
  end;
  let insts = ref [] in
  for i = n - 1 downto 0 do
    let cell = Sc_stdcell.Library.layout_of pl.problem.kinds.(i) in
    let y = pl.row.(i) * row_pitch in
    (* flip odd rows so facing rails match (VDD against VDD) *)
    let trans =
      if pl.row.(i) land 1 = 1 then
        Transform.make ~orient:Transform.MX
          (Point.make pl.x.(i) (y + Sc_stdcell.Nmos.cell_height))
      else Transform.translation pl.x.(i) y
    in
    insts :=
      Sc_layout.Cell.instantiate ~name:("g" ^ string_of_int i) ~trans cell :: !insts
  done;
  Sc_layout.Compose.of_instances ~name !insts

type routed_channels =
  { channels : Sc_route.Channel.routed list
  ; total_height : int
  }

(* Pin assignment: one pin per net per channel side, snapped onto a
   14-lambda grid.  Bottom pins sit on even half-grid slots and top pins
   on odd ones, so no column ever carries pins of two different nets and
   the vertical constraint graph stays empty.  A side's pin goes to the
   mean centre of the net's items on that side; the boundaries are
   visited bottom up, adding each row's items to their nets' running
   bottom sums, so a boundary costs one pass over the nets, however
   many items they have.  [pin_assigner pl] returns [pins_at]: called
   for each boundary in turn, bottom up, [pins_at b] is boundary [b]'s
   bottom and top pin x per crossing net, [None] when no net crosses
   it. *)
let pin_assigner pl =
  let grid = 14 in
  let nets = pl.problem.nets in
  let nnets = Array.length nets and n = Array.length pl.problem.kinds in
  let centre i = pl.x.(i) + (pl.problem.widths.(i) / 2) in
  let max_centre = ref 0 in
  for i = 0 to n - 1 do
    max_centre := Int.max !max_centre (centre i)
  done;
  (* a net crosses boundary b (between rows b and b+1) iff lo <= b < hi *)
  let lo = Array.make nnets max_int and hi = Array.make nnets min_int in
  let sum = Array.make nnets 0 in
  (* the items of each row, and the nets of each item *)
  let row_at = Array.make (pl.nrows + 1) 0 and net_at = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    row_at.(pl.row.(i) + 1) <- row_at.(pl.row.(i) + 1) + 1
  done;
  Array.iteri
    (fun k net ->
      Array.iter
        (fun i ->
          lo.(k) <- Int.min lo.(k) pl.row.(i);
          hi.(k) <- Int.max hi.(k) pl.row.(i);
          sum.(k) <- sum.(k) + centre i;
          net_at.(i + 1) <- net_at.(i + 1) + 1)
        net)
    nets;
  for r = 1 to pl.nrows do
    row_at.(r) <- row_at.(r) + row_at.(r - 1)
  done;
  for i = 1 to n do
    net_at.(i) <- net_at.(i) + net_at.(i - 1)
  done;
  let by_row = Array.make n 0 and of_item = Array.make net_at.(n) 0 in
  let fill = Array.sub row_at 0 pl.nrows in
  for i = 0 to n - 1 do
    by_row.(fill.(pl.row.(i))) <- i;
    fill.(pl.row.(i)) <- fill.(pl.row.(i)) + 1
  done;
  let fill = Array.sub net_at 0 n in
  Array.iteri
    (fun k net ->
      Array.iter
        (fun i ->
          of_item.(fill.(i)) <- k;
          fill.(i) <- fill.(i) + 1)
        net)
    nets;
  let bsum = Array.make nnets 0 and bcount = Array.make nnets 0 in
  let bx = Array.make nnets 0 and tx = Array.make nnets 0 in
  fun boundary ->
    for j = row_at.(boundary) to row_at.(boundary + 1) - 1 do
      let i = by_row.(j) in
      for e = net_at.(i) to net_at.(i + 1) - 1 do
        let k = of_item.(e) in
        bsum.(k) <- bsum.(k) + centre i;
        bcount.(k) <- bcount.(k) + 1
      done
    done;
    let count = ref 0 in
    for k = 0 to nnets - 1 do
      if lo.(k) <= boundary && boundary < hi.(k) then incr count
    done;
    let count = !count in
    if count = 0 then None
    else begin
      (* the last of k pins lands at most k-1 slots past the largest snap *)
      let size = (!max_centre / grid) + count + 1 in
      let bottom_slots = Sc_route.Next_free.create size
      and top_slots = Sc_route.Next_free.create size in
      let slot slots x =
        let s = Sc_route.Next_free.find slots (Int.max 0 (x / grid)) in
        Sc_route.Next_free.take slots s;
        s
      in
      (* slots go to the nets in order: the first net to want a slot
         gets it *)
      let netid = ref 0 in
      for k = 0 to nnets - 1 do
        if lo.(k) <= boundary && boundary < hi.(k) then begin
          let tcount = Array.length nets.(k) - bcount.(k) in
          bx.(!netid) <- slot bottom_slots (bsum.(k) / bcount.(k)) * grid;
          tx.(!netid) <-
            (slot top_slots ((sum.(k) - bsum.(k)) / tcount) * grid) + (grid / 2);
          incr netid
        end
      done;
      Some (Array.sub bx 0 count, Array.sub tx 0 count)
    end

(* net [k]'s pins at [bottom.(k)] and [top.(k)] *)
let spec_of (bottom, top) =
  let bpins = ref [] and tpins = ref [] and width = ref 0 in
  for net = Array.length bottom - 1 downto 0 do
    bpins := { Sc_route.Channel.x = bottom.(net); net } :: !bpins;
    tpins := { Sc_route.Channel.x = top.(net); net } :: !tpins;
    width := Int.max !width (Int.max bottom.(net) top.(net) + 2)
  done;
  { Sc_route.Channel.top = !tpins; bottom = !bpins; width = !width }

(* The pins of every channel are assigned first, as int arrays; each
   channel's spec is made just before it is routed, so only one
   channel's pin lists are live at a time. *)
let route_channels pl =
  let pins =
    Sc_obs.Obs.span "pins" @@ fun () ->
    let pins_at = pin_assigner pl in
    List.filter_map pins_at (List.init (Int.max 0 (pl.nrows - 1)) Fun.id)
  in
  let channels = List.map (fun p -> Sc_route.Channel.route (spec_of p)) pins in
  { channels
  ; total_height =
      List.fold_left (fun a (c : Sc_route.Channel.routed) -> a + c.height) 0 channels
  }
