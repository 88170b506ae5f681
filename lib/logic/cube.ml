type lit = Zero | One | Dash

type t = { lits : lit array; outputs : int }

let make lits outputs =
  if outputs <= 0 then invalid_arg "Cube.make: empty or negative output mask";
  { lits = Array.copy lits; outputs }

let of_string s outputs =
  let lit_of_char = function
    | '0' -> Zero
    | '1' -> One
    | '-' | 'x' | 'X' -> Dash
    | c -> invalid_arg (Printf.sprintf "Cube.of_string: bad character %c" c)
  in
  make (Array.init (String.length s) (fun i -> lit_of_char s.[i])) outputs

let minterm bits outputs =
  make (Array.map (fun b -> if b then One else Zero) bits) outputs

let num_inputs c = Array.length c.lits

let free_count c =
  Array.fold_left (fun n l -> if l = Dash then n + 1 else n) 0 c.lits

let covers_input c bits =
  let n = Array.length c.lits in
  assert (Array.length bits = n);
  let rec go i =
    i >= n
    ||
    match c.lits.(i) with
    | Dash -> go (i + 1)
    | One -> bits.(i) && go (i + 1)
    | Zero -> (not bits.(i)) && go (i + 1)
  in
  go 0

let input_covers c c' =
  let n = Array.length c.lits in
  let rec go i =
    i >= n
    ||
    match (c.lits.(i), c'.lits.(i)) with
    | Dash, _ -> go (i + 1)
    | One, One | Zero, Zero -> go (i + 1)
    | _ -> false
  in
  go 0

let covers c c' = c.outputs land c'.outputs = c'.outputs && input_covers c c'

let distance c c' =
  let d = ref 0 in
  Array.iteri
    (fun i l ->
      match (l, c'.lits.(i)) with
      | Zero, One | One, Zero -> incr d
      | _ -> ())
    c.lits;
  !d

let merge c c' =
  if c.outputs land c'.outputs = 0 then None
  else if distance c c' <> 1 then None
  else begin
    (* the input parts must agree everywhere else, including Dashes *)
    let n = Array.length c.lits in
    let rec same_elsewhere i =
      i >= n
      ||
      match (c.lits.(i), c'.lits.(i)) with
      | Zero, One | One, Zero -> same_elsewhere (i + 1)
      | a, b -> a = b && same_elsewhere (i + 1)
    in
    if not (same_elsewhere 0) then None
    else
      let lits =
        Array.mapi
          (fun i l ->
            match (l, c'.lits.(i)) with
            | Zero, One | One, Zero -> Dash
            | a, _ -> a)
          c.lits
      in
      Some (make lits (c.outputs land c'.outputs))
  end

let raise_lit c i =
  let lits = Array.copy c.lits in
  lits.(i) <- Dash;
  { c with lits }

let cofactor_lit c i v =
  match (c.lits.(i), v) with
  | Zero, true | One, false -> None
  | _ -> Some (raise_lit c i)

let equal a b = a.outputs = b.outputs && a.lits = b.lits

let to_string c =
  let buf = Buffer.create (num_inputs c + 8) in
  Array.iter
    (fun l ->
      Buffer.add_char buf (match l with Zero -> '0' | One -> '1' | Dash -> '-'))
    c.lits;
  Buffer.add_string buf (Printf.sprintf "#%x" c.outputs);
  Buffer.contents buf
