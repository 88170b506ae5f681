(* Nodes are ints into three parallel arrays (variable, low child, high
   child).  Ids 0 and 1 are the terminals; their variable is max_int so
   [min] over levels always picks a decision variable first.  The unique
   table enforces strong canonicity (no node with lo = hi, no duplicate
   triples), so semantic equality is [==] on ids. *)

type t = int

type man =
  { mutable vr : int array
  ; mutable lo : int array
  ; mutable hi : int array
  ; mutable n : int  (* next free id *)
  ; unique : (int * int * int, int) Hashtbl.t
  ; binop : (int * int * int, int) Hashtbl.t  (* (op, a, b) -> result *)
  ; neg : (int, int) Hashtbl.t
  ; ite_cache : (int * int * int, int) Hashtbl.t
  }

let zero = 0
let one = 1

let create () =
  let cap = 1024 in
  let vr = Array.make cap max_int in
  let lo = Array.make cap 0 in
  let hi = Array.make cap 0 in
  lo.(1) <- 1;
  hi.(1) <- 1;
  { vr
  ; lo
  ; hi
  ; n = 2
  ; unique = Hashtbl.create cap
  ; binop = Hashtbl.create cap
  ; neg = Hashtbl.create 64
  ; ite_cache = Hashtbl.create 64
  }

let grow m =
  if m.n = Array.length m.vr then begin
    let cap = 2 * Array.length m.vr in
    let copy a fill =
      let a' = Array.make cap fill in
      Array.blit a 0 a' 0 m.n;
      a'
    in
    m.vr <- copy m.vr max_int;
    m.lo <- copy m.lo 0;
    m.hi <- copy m.hi 0
  end

let mk m v l h =
  if l = h then l
  else
    match Hashtbl.find_opt m.unique (v, l, h) with
    | Some id -> id
    | None ->
      grow m;
      let id = m.n in
      m.vr.(id) <- v;
      m.lo.(id) <- l;
      m.hi.(id) <- h;
      m.n <- id + 1;
      Hashtbl.add m.unique (v, l, h) id;
      id

let var m i =
  if i < 0 then invalid_arg "Bdd.var: negative variable";
  mk m i zero one

let level m x = m.vr.(x)

let rec not_ m x =
  if x = zero then one
  else if x = one then zero
  else
    match Hashtbl.find_opt m.neg x with
    | Some r -> r
    | None ->
      let r = mk m m.vr.(x) (not_ m m.lo.(x)) (not_ m m.hi.(x)) in
      Hashtbl.add m.neg x r;
      r

(* op codes for the shared binary cache *)
let op_and = 0
let op_or = 1
let op_xor = 2

let rec apply m op x y =
  let shortcut =
    if op = op_and then
      if x = zero || y = zero then Some zero
      else if x = one then Some y
      else if y = one then Some x
      else if x = y then Some x
      else None
    else if op = op_or then
      if x = one || y = one then Some one
      else if x = zero then Some y
      else if y = zero then Some x
      else if x = y then Some x
      else None
    else if x = y then Some zero
    else if x = zero then Some y
    else if y = zero then Some x
    else if x = one then Some (not_ m y)
    else if y = one then Some (not_ m x)
    else None
  in
  match shortcut with
  | Some r -> r
  | None ->
    (* all three ops are commutative: normalize the cache key *)
    let a, b = if x <= y then (x, y) else (y, x) in
    let key = (op, a, b) in
    (match Hashtbl.find_opt m.binop key with
    | Some r -> r
    | None ->
      let va = level m a and vb = level m b in
      let v = min va vb in
      let a0, a1 = if va = v then (m.lo.(a), m.hi.(a)) else (a, a) in
      let b0, b1 = if vb = v then (m.lo.(b), m.hi.(b)) else (b, b) in
      let r = mk m v (apply m op a0 b0) (apply m op a1 b1) in
      Hashtbl.add m.binop key r;
      r)

let and_ m x y = apply m op_and x y
let or_ m x y = apply m op_or x y
let xor m x y = apply m op_xor x y
let xnor m x y = not_ m (xor m x y)

let rec ite m f g h =
  if f = one then g
  else if f = zero then h
  else if g = h then g
  else if g = one && h = zero then f
  else if g = zero && h = one then not_ m f
  else
    let key = (f, g, h) in
    match Hashtbl.find_opt m.ite_cache key with
    | Some r -> r
    | None ->
      let v = min (level m f) (min (level m g) (level m h)) in
      let cof x = if level m x = v then (m.lo.(x), m.hi.(x)) else (x, x) in
      let f0, f1 = cof f and g0, g1 = cof g and h0, h1 = cof h in
      let r = mk m v (ite m f0 g0 h0) (ite m f1 g1 h1) in
      Hashtbl.add m.ite_cache key r;
      r

let is_false x = x = zero
let node_count m = m.n

let sat_one m x =
  if x = zero then invalid_arg "Bdd.sat_one: unsatisfiable";
  let rec go x acc =
    if x = one then List.rev acc
    else if m.hi.(x) <> zero then go m.hi.(x) ((m.vr.(x), true) :: acc)
    else go m.lo.(x) ((m.vr.(x), false) :: acc)
  in
  go x []
