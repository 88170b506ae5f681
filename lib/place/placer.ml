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

let problem_of_circuit c =
  let f = Circuit.flatten c in
  let gates = Array.of_list f.Circuit.gates in
  let kinds = Array.map (fun g -> g.Circuit.kind) gates in
  let widths =
    Array.map (fun g -> (Sc_stdcell.Library.get g.Circuit.kind).Sc_stdcell.Library.width) gates
  in
  let names = Array.map (fun g -> g.Circuit.gname) gates in
  let by_net = Hashtbl.create 64 in
  (* dedup with a (net, item) set: [List.mem] on the accumulated list is
     O(fanout) per endpoint, quadratic on high-fanout nets like clocks *)
  let seen = Hashtbl.create 256 in
  let touch net item =
    if not (Hashtbl.mem seen (net, item)) then begin
      Hashtbl.add seen (net, item) ();
      let cur = try Hashtbl.find by_net net with Not_found -> [] in
      Hashtbl.replace by_net net (item :: cur)
    end
  in
  Array.iteri
    (fun idx g ->
      touch g.Circuit.out idx;
      Array.iter (fun n -> touch n idx) g.Circuit.ins)
    gates;
  let nets =
    Hashtbl.fold
      (fun _ items acc ->
        match items with
        | [] | [ _ ] -> acc
        | _ -> Array.of_list items :: acc)
      by_net []
  in
  { kinds; widths; names; nets = Array.of_list nets }

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
  (* barycentre iterations on a 1-D abstract coordinate *)
  let pos = Array.init n float_of_int in
  (* Item [i]'s neighbours are [adj.(first.(i)) .. adj.(first.(i + 1) - 1)],
     one entry per (net, other member) pair, the last visited first:
     counted, then filled from each item's end downwards. *)
  let first = Array.make (n + 1) 0 in
  let pairs f =
    Array.iter
      (fun net -> Array.iter (fun a -> Array.iter (fun b -> if a <> b then f a b) net) net)
      p.nets
  in
  pairs (fun a _ -> first.(a + 1) <- first.(a + 1) + 1);
  for i = 1 to n do
    first.(i) <- first.(i) + first.(i - 1)
  done;
  let adj = Array.make first.(n) 0 in
  let fill = Array.sub first 1 n in
  pairs (fun a b ->
      fill.(a) <- fill.(a) - 1;
      adj.(fill.(a)) <- b);
  for _pass = 1 to 12 do
    let next = Array.copy pos in
    for i = 0 to n - 1 do
      let lo = first.(i) and hi = first.(i + 1) in
      if hi > lo then begin
        let sum = ref 0.0 in
        for k = lo to hi - 1 do
          sum := !sum +. pos.(adj.(k))
        done;
        next.(i) <- (pos.(i) +. (!sum /. float_of_int (hi - lo))) /. 2.0
      end
    done;
    Array.blit next 0 pos 0 n;
    (* re-rank to keep positions spread *)
    let ranked = Array.init n (fun i -> i) in
    Array.sort (fun a b -> Float.compare pos.(a) pos.(b)) ranked;
    Array.iteri (fun rank item -> pos.(item) <- float_of_int rank) ranked
  done;
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> Float.compare pos.(a) pos.(b)) order;
  fold_rows p order nrows

let item_center pl i =
  let cx = pl.x.(i) + (pl.problem.widths.(i) / 2) in
  (* row pitch normalized to the library cell height plus a nominal channel *)
  let cy = pl.row.(i) * (Sc_stdcell.Nmos.cell_height + 30) in
  (cx, cy)

let hpwl pl =
  Array.fold_left
    (fun acc net ->
      let xs = Array.map (fun i -> fst (item_center pl i)) net in
      let ys = Array.map (fun i -> snd (item_center pl i)) net in
      let min_a = Array.fold_left min max_int and max_a = Array.fold_left max min_int in
      acc + (max_a xs - min_a xs) + (max_a ys - min_a ys))
    0 pl.problem.nets

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
    let cost_of_net ni =
      let xmin = ref max_int and xmax = ref min_int in
      let ymin = ref max_int and ymax = ref min_int in
      Array.iter
        (fun i ->
          let cx, cy = item_center current i in
          if cx < !xmin then xmin := cx;
          if cx > !xmax then xmax := cx;
          if cy < !ymin then ymin := cy;
          if cy > !ymax then ymax := cy)
        nets.(ni);
      !xmax - !xmin + (!ymax - !ymin)
    in
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

let best_of ?pool ?(seeds = 4) ?iters ?nrows p =
  let pool = match pool with Some q -> q | None -> Sc_par.Pool.default () in
  let starts =
    (fun () -> improve_cost ?iters (ordered ?nrows p))
    :: List.init seeds (fun k () ->
           improve_cost ?iters (random ~seed:(100 + k) ?nrows p))
  in
  let results = Sc_par.Pool.run ~label:"place.restart" pool starts in
  match results with
  | [] -> assert false
  | first :: rest ->
    (* strict < keeps the earliest start on ties, independent of pool size *)
    fst
      (List.fold_left
         (fun (bp, bc) (cp, cc) -> if cc < bc then (cp, cc) else (bp, bc))
         first rest)

let to_layout ?(channel = 30) ~name pl =
  let open Sc_geom in
  let n = Array.length pl.problem.kinds in
  if Sc_obs.Obs.enabled () then begin
    Sc_obs.Obs.gauge "place.hpwl" (hpwl pl);
    Sc_obs.Obs.gauge "place.rows" pl.nrows;
    Sc_obs.Obs.gauge "place.cells" n
  end;
  let pitch = Sc_stdcell.Nmos.cell_height + channel in
  let insts = ref [] in
  for i = n - 1 downto 0 do
    let cell = Sc_stdcell.Library.layout_of pl.problem.kinds.(i) in
    let y = pl.row.(i) * pitch in
    (* flip odd rows so facing rails match (VDD against VDD) *)
    let trans =
      if pl.row.(i) land 1 = 1 then
        Transform.make ~orient:Transform.MX
          (Point.make pl.x.(i) (y + Sc_stdcell.Nmos.cell_height))
      else Transform.translation pl.x.(i) y
    in
    insts :=
      Sc_layout.Cell.instantiate ~name:(Printf.sprintf "g%d" i) ~trans cell
      :: !insts
  done;
  let ports =
    List.concat_map
      (fun (i : Sc_layout.Cell.inst) ->
        List.map
          (fun (p : Sc_layout.Cell.port) ->
            let q = Sc_layout.Cell.port_in_parent i p in
            { q with Sc_layout.Cell.pname = i.inst_name ^ "." ^ p.pname })
          i.cell.Sc_layout.Cell.ports)
      !insts
  in
  Sc_layout.Cell.make ~name ~ports ~instances:!insts []

type routed_channels =
  { channels : Sc_route.Channel.routed list
  ; total_height : int
  }

(* Pin assignment: one pin per net per channel side, snapped onto a
   14-lambda grid.  Bottom pins sit on even half-grid slots and top pins
   on odd ones, so no column ever carries pins of two different nets and
   the vertical constraint graph stays empty. *)
let channel_specs pl =
  let grid = 14 in
  let nets = pl.problem.nets in
  let centre i = pl.x.(i) + (pl.problem.widths.(i) / 2) in
  let max_centre = ref 0 in
  for i = 0 to Array.length pl.problem.kinds - 1 do
    max_centre := max !max_centre (centre i)
  done;
  (* a net crosses boundary b (between rows b and b+1) iff lo <= b < hi *)
  let lo = Array.map (Array.fold_left (fun m i -> min m pl.row.(i)) max_int) nets in
  let hi = Array.map (Array.fold_left (fun m i -> max m pl.row.(i)) min_int) nets in
  let specs = ref [] in
  for boundary = pl.nrows - 2 downto 0 do
    let crossing = ref [] in
    for k = Array.length nets - 1 downto 0 do
      if lo.(k) <= boundary && boundary < hi.(k) then crossing := k :: !crossing
    done;
    if !crossing <> [] then begin
      let crossing = Array.of_list !crossing in
      let count = Array.length crossing in
      (* the last of k pins lands at most k-1 slots past the largest snap *)
      let size = (!max_centre / grid) + count + 1 in
      let bottom_slots = Sc_route.Next_free.create size
      and top_slots = Sc_route.Next_free.create size in
      let slot slots x =
        let s = Sc_route.Next_free.find slots (max 0 (x / grid)) in
        Sc_route.Next_free.take slots s;
        s
      in
      (* slots go to the nets in order: the first net to want a slot
         gets it *)
      let bx = Array.make count 0 and tx = Array.make count 0 in
      for netid = 0 to count - 1 do
        let net = nets.(crossing.(netid)) in
        let bsum = ref 0 and bcount = ref 0 and tsum = ref 0 and tcount = ref 0 in
        for m = 0 to Array.length net - 1 do
          let i = net.(m) in
          if pl.row.(i) <= boundary then begin
            bsum := !bsum + centre i;
            incr bcount
          end
          else begin
            tsum := !tsum + centre i;
            incr tcount
          end
        done;
        bx.(netid) <- slot bottom_slots (!bsum / !bcount) * grid;
        tx.(netid) <- (slot top_slots (!tsum / !tcount) * grid) + (grid / 2)
      done;
      let bottom = ref [] and top = ref [] and width = ref 0 in
      for netid = count - 1 downto 0 do
        bottom := { Sc_route.Channel.x = bx.(netid); net = netid } :: !bottom;
        top := { Sc_route.Channel.x = tx.(netid); net = netid } :: !top;
        width := max !width (max bx.(netid) tx.(netid) + 2)
      done;
      specs := { Sc_route.Channel.top = !top; bottom = !bottom; width = !width } :: !specs
    end
  done;
  !specs

let route_channels pl =
  let specs = Sc_obs.Obs.span "pins" (fun () -> channel_specs pl) in
  let channels = List.map (fun spec -> Sc_route.Channel.route spec) specs in
  { channels
  ; total_height =
      List.fold_left (fun a (c : Sc_route.Channel.routed) -> a + c.height) 0 channels
  }

let pp ppf pl =
  Format.fprintf ppf "placement: %d items in %d rows, width %d, hpwl %d"
    (Array.length pl.problem.kinds) pl.nrows pl.row_width (hpwl pl)
