type t =
  { rects : Rect.t array
  ; x0 : int  (** bounding box of [rects] *)
  ; y0 : int
  ; x1 : int
  ; y1 : int
  ; tile : int
  ; cols : int
  ; rows : int
  ; start : int array
        (** tile [k] lists [items.(start.(k)) .. items.(start.(k + 1) - 1)],
            ascending; tiles are numbered row-major *)
  ; items : int array
  }

(* The tile of a coordinate, clamped to the grid: monotone in [x], so a
   rectangle spanning [x, x'] is listed in every column from [col x] to
   [col x']. *)
let col t x = Int.max 0 (Int.min (t.cols - 1) ((x - t.x0) / t.tile))
let row t y = Int.max 0 (Int.min (t.rows - 1) ((y - t.y0) / t.tile))

let create rects =
  let n = Array.length rects in
  let x0 = ref max_int and y0 = ref max_int in
  let x1 = ref min_int and y1 = ref min_int in
  Array.iter
    (fun (r : Rect.t) ->
      x0 := Int.min !x0 r.xmin;
      y0 := Int.min !y0 r.ymin;
      x1 := Int.max !x1 r.xmax;
      y1 := Int.max !y1 r.ymax)
    rects;
  if n = 0 then
    { rects; x0 = 0; y0 = 0; x1 = -1; y1 = -1; tile = 1; cols = 1; rows = 1
    ; start = [| 0; 0 |]; items = [||] }
  else begin
    let w = !x1 - !x0 and h = !y1 - !y0 in
    (* about one rectangle per tile; never more columns or rows than
       rectangles, so a flat strip of boxes still gets O(n) tiles *)
    let tile =
      Int.max 1
        (Int.max
           (int_of_float (sqrt (float_of_int w *. float_of_int h /. float_of_int n)))
           ((Int.max w h / n) + 1))
    in
    let t =
      { rects; x0 = !x0; y0 = !y0; x1 = !x1; y1 = !y1; tile
      ; cols = (w / tile) + 1; rows = (h / tile) + 1
      ; start = [||]; items = [||] }
    in
    let ntiles = t.cols * t.rows in
    (* counting sort into tiles: count, running sum to each tile's end,
       then fill downwards so each tile's list comes out ascending and
       [start.(k)] ends at the tile's first entry *)
    let each_entry f =
      for i = n - 1 downto 0 do
        let r = rects.(i) in
        for rr = row t r.ymin to row t r.ymax do
          for cc = col t r.xmin to col t r.xmax do
            f ((rr * t.cols) + cc) i
          done
        done
      done
    in
    let start = Array.make (ntiles + 1) 0 in
    each_entry (fun k _ -> start.(k) <- start.(k) + 1);
    for k = 1 to ntiles do
      start.(k) <- start.(k) + start.(k - 1)
    done;
    let items = Array.make start.(ntiles) 0 in
    each_entry (fun k i ->
        start.(k) <- start.(k) - 1;
        items.(start.(k)) <- i);
    { t with start; items }
  end

let rects t = t.rects

type cursor = { index : t; mutable hits : int array; mutable count : int }

let cursor index = { index; hits = Array.make 16 0; count = 0 }

let hit c k = c.hits.(k)

let push c j =
  if c.count = Array.length c.hits then begin
    let bigger = Array.make (2 * c.count) 0 in
    Array.blit c.hits 0 bigger 0 c.count;
    c.hits <- bigger
  end;
  c.hits.(c.count) <- j;
  c.count <- c.count + 1

(* move [a.(i)] down the max-heap [a.(0) .. a.(len - 1)] *)
let rec sift a i len =
  let l = (2 * i) + 1 in
  if l < len then begin
    let m = if l + 1 < len && a.(l + 1) > a.(l) then l + 1 else l in
    if a.(m) > a.(i) then begin
      let v = a.(i) in
      a.(i) <- a.(m);
      a.(m) <- v;
      sift a m len
    end
  end

(* In-place ascending sort of [a.(0) .. a.(n - 1)]: insertion sort for
   the usual handful of hits, heapsort past that. *)
let sort_prefix a n =
  if n <= 32 then
    for i = 1 to n - 1 do
      let v = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > v do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- v
    done
  else begin
    for i = (n / 2) - 1 downto 0 do
      sift a i n
    done;
    for last = n - 1 downto 1 do
      let v = a.(0) in
      a.(0) <- a.(last);
      a.(last) <- v;
      sift a 0 last
    done
  end

(* A rectangle spanning several of the query's tiles is reported only
   from the tile holding the lower-left corner of its intersection with
   the query window, [(max xmin qx0, max ymin qy0)]: that is the first
   query column (and row) it shares with the window. *)
let near c ~within (r : Rect.t) =
  assert (within >= 0);
  let t = c.index in
  c.count <- 0;
  let qx0 = r.xmin - within and qx1 = r.xmax + within in
  let qy0 = r.ymin - within and qy1 = r.ymax + within in
  if qx1 >= t.x0 && qx0 <= t.x1 && qy1 >= t.y0 && qy0 <= t.y1 then begin
    let c0 = col t qx0 and c1 = col t qx1 in
    let r0 = row t qy0 and r1 = row t qy1 in
    for rr = r0 to r1 do
      for cc = c0 to c1 do
        let k = (rr * t.cols) + cc in
        for e = t.start.(k) to t.start.(k + 1) - 1 do
          let j = t.items.(e) in
          let q = t.rects.(j) in
          if q.xmin <= qx1 && qx0 <= q.xmax && q.ymin <= qy1 && qy0 <= q.ymax
             && (cc = c0 || col t q.xmin = cc)
             && (rr = r0 || row t q.ymin = rr)
          then push c j
        done
      done
    done;
    sort_prefix c.hits c.count
  end;
  c.count

(* Two touching rectangles share at least one tile, so unioning the
   touching pairs within each tile joins every region. *)
let components t =
  let uf = Union_find.create (Array.length t.rects) in
  for k = 0 to Array.length t.start - 2 do
    let last = t.start.(k + 1) - 1 in
    for a = t.start.(k) to last do
      let i = t.items.(a) in
      for b = a + 1 to last do
        let j = t.items.(b) in
        if Rect.touches_or_overlaps t.rects.(i) t.rects.(j) then
          Union_find.union uf i j
      done
    done
  done;
  Union_find.labels uf

let subtract c r =
  let cuts = c.index.rects in
  let pieces = ref [ r ] in
  for k = 0 to near c ~within:0 r - 1 do
    let cut = cuts.(hit c k) in
    pieces := List.concat_map (fun p -> Rect.minus p cut) !pieces
  done;
  !pieces
