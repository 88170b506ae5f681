type t = { ninputs : int; noutputs : int; cubes : Cube.t list }

let max_outputs = 62

let make ~ninputs ~noutputs cubes =
  if noutputs < 1 || noutputs > max_outputs then
    invalid_arg "Cover.make: noutputs out of range";
  if ninputs < 0 then invalid_arg "Cover.make: negative ninputs";
  List.iter
    (fun c ->
      if Cube.num_inputs c <> ninputs then
        invalid_arg "Cover.make: cube arity mismatch";
      if c.Cube.outputs lsr noutputs <> 0 then
        invalid_arg "Cover.make: output mask out of range")
    cubes;
  { ninputs; noutputs; cubes }

let mask_of_string s =
  let m = ref 0 in
  String.iteri
    (fun i c ->
      match c with
      | '1' -> m := !m lor (1 lsl i)
      | '0' | '-' -> ()
      | c -> invalid_arg (Printf.sprintf "Cover.of_rows: bad output char %c" c))
    s;
  !m

let of_rows ~ninputs ~noutputs rows =
  let cube_of (inp, out) =
    if String.length inp <> ninputs then
      invalid_arg "Cover.of_rows: input width mismatch";
    if String.length out <> noutputs then
      invalid_arg "Cover.of_rows: output width mismatch";
    let mask = mask_of_string out in
    if mask = 0 then None else Some (Cube.of_string inp mask)
  in
  make ~ninputs ~noutputs (List.filter_map cube_of rows)

let of_function ~ninputs ~noutputs f =
  if ninputs > 20 then invalid_arg "Cover.of_function: too many inputs";
  let cubes = ref [] in
  for v = 0 to (1 lsl ninputs) - 1 do
    let bits = Array.init ninputs (fun i -> v land (1 lsl i) <> 0) in
    let out = f bits in
    if Array.length out <> noutputs then
      invalid_arg "Cover.of_function: output width mismatch";
    let mask = ref 0 in
    Array.iteri (fun o b -> if b then mask := !mask lor (1 lsl o)) out;
    if !mask <> 0 then cubes := Cube.minterm bits !mask :: !cubes
  done;
  make ~ninputs ~noutputs (List.rev !cubes)

let term_count t = List.length t.cubes

let literal_count t =
  List.fold_left
    (fun acc c -> acc + (t.ninputs - Cube.free_count c))
    0 t.cubes

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go m 0

let output_count t =
  List.fold_left (fun acc c -> acc + popcount c.Cube.outputs) 0 t.cubes

let eval t bits =
  let out = Array.make t.noutputs false in
  List.iter
    (fun c ->
      if Cube.covers_input c bits then
        for o = 0 to t.noutputs - 1 do
          if c.Cube.outputs land (1 lsl o) <> 0 then out.(o) <- true
        done)
    t.cubes;
  out

let restrict_output t o =
  let cubes =
    List.filter_map
      (fun c ->
        if c.Cube.outputs land (1 lsl o) <> 0 then
          Some (Cube.make c.Cube.lits 1)
        else None)
      t.cubes
  in
  make ~ninputs:t.ninputs ~noutputs:1 cubes

let cofactor t cube =
  let cofactor_cube c =
    (* c cofactored by every bound literal of [cube] *)
    let n = t.ninputs in
    let rec go i c =
      if i >= n then Some c
      else
        match cube.Cube.lits.(i) with
        | Cube.Dash -> go (i + 1) c
        | Cube.Zero -> (
          match Cube.cofactor_lit c i false with
          | Some c' -> go (i + 1) c'
          | None -> None)
        | Cube.One -> (
          match Cube.cofactor_lit c i true with
          | Some c' -> go (i + 1) c'
          | None -> None)
    in
    go 0 c
  in
  { t with cubes = List.filter_map cofactor_cube t.cubes }

(* Tautology by Shannon expansion on the most-bound variable, with the two
   classic shortcuts: a cube of all Dashes is a tautology; an empty cover is
   not.  Single-output view: masks ignored. *)
let tautology t =
  let rec taut cubes =
    match cubes with
    | [] -> false
    | _ when List.exists (fun c -> Cube.free_count c = Cube.num_inputs c) cubes
      -> true
    | _ ->
      (* pick the variable bound in the most cubes *)
      let n = t.ninputs in
      let counts = Array.make n 0 in
      List.iter
        (fun c ->
          Array.iteri
            (fun i l -> if l <> Cube.Dash then counts.(i) <- counts.(i) + 1)
            c.Cube.lits)
        cubes;
      let var = ref (-1) and best = ref 0 in
      Array.iteri
        (fun i k ->
          if k > !best then begin
            best := k;
            var := i
          end)
        counts;
      if !var < 0 then false
      else
        let cof v =
          List.filter_map (fun c -> Cube.cofactor_lit c !var v) cubes
        in
        taut (cof false) && taut (cof true)
  in
  taut t.cubes

let cube_covered cube t =
  let rec check o =
    if o >= t.noutputs then true
    else if cube.Cube.outputs land (1 lsl o) = 0 then check (o + 1)
    else
      let view = restrict_output t o in
      let cof = cofactor view cube in
      tautology cof && check (o + 1)
  in
  check 0

let union a b =
  if a.ninputs <> b.ninputs || a.noutputs <> b.noutputs then
    invalid_arg "Cover.union: arity mismatch";
  { a with cubes = a.cubes @ b.cubes }

let covered_by a b = List.for_all (fun c -> cube_covered c b) a.cubes

let equivalent a b =
  a.ninputs = b.ninputs && a.noutputs = b.noutputs && covered_by a b
  && covered_by b a
