(* --- exact engine: multi-output Quine-McCluskey --- *)

let minterm_map cover =
  (* value -> output mask over ON u DC *)
  let n = cover.Cover.ninputs in
  let tbl = Hashtbl.create 256 in
  for v = 0 to (1 lsl n) - 1 do
    let bits = Array.init n (fun i -> v land (1 lsl i) <> 0) in
    let mask =
      List.fold_left
        (fun m c -> if Cube.covers_input c bits then m lor c.Cube.outputs else m)
        0 cover.Cover.cubes
    in
    if mask <> 0 then Hashtbl.replace tbl v mask
  done;
  tbl

let primes ?dontcare cover =
  let n = cover.Cover.ninputs in
  if n > 16 then invalid_arg "Minimize.primes: too many inputs";
  let full =
    match dontcare with Some dc -> Cover.union cover dc | None -> cover
  in
  let tbl = minterm_map full in
  let level0 =
    Hashtbl.fold
      (fun v mask acc ->
        Cube.minterm (Array.init n (fun i -> v land (1 lsl i) <> 0)) mask :: acc)
      tbl []
  in
  let primes = ref [] in
  (* classic QM: only cubes whose One-counts differ by exactly 1 can merge,
     so bucket each level by popcount and compare adjacent buckets.  Two
     cubes merge exactly when their Dash masks are equal, their One
     masks differ in one bit and their output tags intersect: the masks
     (n <= 16 bits) let most pairs be refused without [Cube.merge] *)
  let mask_of l (c : Cube.t) =
    let m = ref 0 in
    Array.iteri (fun i l' -> if l' = l then m := !m lor (1 lsl i)) c.Cube.lits;
    !m
  in
  let rec popcount m = if m = 0 then 0 else 1 + popcount (m land (m - 1)) in
  let rec round cubes =
    if cubes = [] then ()
    else begin
      let arr = Array.of_list cubes in
      let m = Array.length arr in
      let dashes = Array.map (mask_of Cube.Dash) arr in
      let ones = Array.map (mask_of Cube.One) arr in
      let checked = Array.make m false in
      let next = Hashtbl.create 64 in
      let buckets = Hashtbl.create 16 in
      Array.iteri
        (fun i o ->
          let k = popcount o in
          let cur = try Hashtbl.find buckets k with Not_found -> [] in
          Hashtbl.replace buckets k (i :: cur))
        ones;
      let try_merge i j =
        let d = ones.(i) lxor ones.(j) in
        if
          dashes.(i) = dashes.(j)
          && d land (d - 1) = 0
          && arr.(i).Cube.outputs land arr.(j).Cube.outputs <> 0
        then
          match Cube.merge arr.(i) arr.(j) with
          | Some merged ->
            (* a parent is fully absorbed when its whole tag survives *)
            if merged.Cube.outputs = arr.(i).Cube.outputs then checked.(i) <- true;
            if merged.Cube.outputs = arr.(j).Cube.outputs then checked.(j) <- true;
            let key = Cube.to_string merged in
            (match Hashtbl.find_opt next key with
            | Some existing ->
              (* same input part: keep the union of output tags *)
              Hashtbl.replace next key
                (Cube.make merged.Cube.lits
                   (existing.Cube.outputs lor merged.Cube.outputs))
            | None -> Hashtbl.replace next key merged)
          | None -> ()
      in
      Hashtbl.iter
        (fun k lo ->
          match Hashtbl.find_opt buckets (k + 1) with
          | Some hi -> List.iter (fun i -> List.iter (try_merge i) hi) lo
          | None -> ())
        buckets;
      Array.iteri
        (fun i c -> if not checked.(i) then primes := c :: !primes)
        arr;
      round (Hashtbl.fold (fun _ c acc -> c :: acc) next [])
    end
  in
  round level0;
  (* remove primes dominated by another prime *)
  let ps = !primes in
  if List.length ps > 4000 then ps
  else
    List.filter
      (fun p ->
        not
          (List.exists (fun q -> (not (Cube.equal p q)) && Cube.covers q p) ps))
      ps

let exact ?dontcare cover =
  let n = cover.Cover.ninputs in
  let ps = Array.of_list (primes ?dontcare cover) in
  (* covering rows: (minterm value, output bit) of the ON-set only *)
  let on = minterm_map cover in
  let rows = ref [] in
  Hashtbl.iter
    (fun v mask ->
      for o = 0 to cover.Cover.noutputs - 1 do
        if mask land (1 lsl o) <> 0 then rows := (v, o) :: !rows
      done)
    on;
  let rows = Array.of_list !rows in
  let nrows = Array.length rows in
  let covers_row p (v, o) =
    p.Cube.outputs land (1 lsl o) <> 0
    && Cube.covers_input p (Array.init n (fun i -> v land (1 lsl i) <> 0))
  in
  (* precompute the covering table once: prime -> row indices *)
  let prime_rows =
    Array.map
      (fun p ->
        let acc = ref [] in
        Array.iteri (fun r row -> if covers_row p row then acc := r :: !acc) rows;
        !acc)
      ps
  in
  let row_primes = Array.make nrows [] in
  Array.iteri
    (fun j rs -> List.iter (fun r -> row_primes.(r) <- j :: row_primes.(r)) rs)
    prime_rows;
  let covered = Array.make nrows false in
  let uncovered = ref nrows in
  let chosen = ref [] in
  let pick j =
    chosen := ps.(j) :: !chosen;
    List.iter
      (fun r ->
        if not covered.(r) then begin
          covered.(r) <- true;
          decr uncovered
        end)
      prime_rows.(j)
  in
  (* essential primes: rows covered by exactly one prime *)
  let essentials = Hashtbl.create 16 in
  Array.iter
    (fun js -> match js with [ j ] -> Hashtbl.replace essentials j () | _ -> ())
    row_primes;
  Hashtbl.iter (fun j () -> pick j) essentials;
  (* greedy completion on the precomputed table *)
  while !uncovered > 0 do
    let best = ref (-1) and best_count = ref 0 in
    Array.iteri
      (fun j rs ->
        let k =
          List.fold_left (fun a r -> if covered.(r) then a else a + 1) 0 rs
        in
        if k > !best_count then begin
          best := j;
          best_count := k
        end)
      prime_rows;
    if !best < 0 then
      (* cannot happen: every ON row is covered by some prime *)
      assert false;
    pick !best
  done;
  Cover.make ~ninputs:n ~noutputs:cover.Cover.noutputs !chosen

(* --- heuristic engine: espresso-style EXPAND / IRREDUNDANT --- *)

let expand_cube reference cube =
  let n = Cube.num_inputs cube in
  let rec go i c =
    if i >= n then c
    else if c.Cube.lits.(i) = Cube.Dash then go (i + 1) c
    else
      let raised = Cube.raise_lit c i in
      if Cover.cube_covered raised reference then go (i + 1) raised
      else go (i + 1) c
  in
  go 0 cube

let dedup_contained cubes =
  let rec keep acc = function
    | [] -> List.rev acc
    | c :: rest ->
      if
        List.exists (fun q -> Cube.covers q c) acc
        || List.exists (fun q -> Cube.covers q c) rest
      then keep acc rest
      else keep (c :: acc) rest
  in
  keep [] cubes

let irredundant ?dontcare cover =
  let rec go kept = function
    | [] -> List.rev kept
    | c :: rest ->
      let others =
        Cover.make ~ninputs:cover.Cover.ninputs ~noutputs:cover.Cover.noutputs
          (List.rev_append kept rest)
      in
      let others =
        match dontcare with Some dc -> Cover.union others dc | None -> others
      in
      if Cover.cube_covered c others then go kept rest else go (c :: kept) rest
  in
  Cover.make ~ninputs:cover.Cover.ninputs ~noutputs:cover.Cover.noutputs
    (go [] cover.Cover.cubes)

let heuristic ?dontcare cover =
  let reference =
    match dontcare with Some dc -> Cover.union cover dc | None -> cover
  in
  let pass cv =
    let expanded = List.map (expand_cube reference) cv.Cover.cubes in
    let cv =
      Cover.make ~ninputs:cover.Cover.ninputs ~noutputs:cover.Cover.noutputs
        (dedup_contained expanded)
    in
    irredundant ?dontcare cv
  in
  let once = pass cover in
  let twice = pass once in
  if Cover.term_count twice < Cover.term_count once then twice else once

let minimize ?dontcare ?exact:(want_exact = false) cover =
  if cover.Cover.cubes = [] then cover
  else begin
    let candidate =
      if want_exact || cover.Cover.ninputs <= 10 then
        (* greedy covering-table completion can overshoot; an irredundant
           pass trims it *)
        irredundant ?dontcare (exact ?dontcare cover)
      else heuristic ?dontcare cover
    in
    (* never return a worse cover than the original minus contained cubes *)
    let baseline =
      Cover.make ~ninputs:cover.Cover.ninputs ~noutputs:cover.Cover.noutputs
        (dedup_contained cover.Cover.cubes)
    in
    if Cover.term_count candidate <= Cover.term_count baseline then candidate
    else baseline
  end
