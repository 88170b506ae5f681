(* Stdlib's [Array.sort] with [cmp i j = Float.compare key.(i) key.(j)]
   written in: [maxson] answers -1 where the original raises [Bottom],
   and the recursions are loops. *)
let by_key (key : float array) (a : int array) =
  let cmp i j = Float.compare key.(i) key.(j) in
  (* the son of [i] with the greatest key, the first of equals; -1 when
     [i] has none below [l] *)
  let maxson l i =
    let i31 = i + i + i + 1 in
    if i31 + 2 < l then begin
      let x = if cmp a.(i31) a.(i31 + 1) < 0 then i31 + 1 else i31 in
      if cmp a.(x) a.(i31 + 2) < 0 then i31 + 2 else x
    end
    else if i31 + 1 < l && cmp a.(i31) a.(i31 + 1) < 0 then i31 + 1
    else if i31 < l then i31
    else -1
  in
  let trickle l i e =
    let i = ref i and j = ref (maxson l i) in
    while !j >= 0 && cmp a.(!j) e > 0 do
      a.(!i) <- a.(!j);
      i := !j;
      j := maxson l !i
    done;
    a.(!i) <- e
  in
  let bubble l i =
    let i = ref i and j = ref (maxson l i) in
    while !j >= 0 do
      a.(!i) <- a.(!j);
      i := !j;
      j := maxson l !i
    done;
    !i
  in
  let trickleup i e =
    let i = ref i and placed = ref false in
    while not !placed do
      let father = (!i - 1) / 3 in
      if cmp a.(father) e < 0 then begin
        a.(!i) <- a.(father);
        if father > 0 then i := father
        else begin
          a.(0) <- e;
          placed := true
        end
      end
      else begin
        a.(!i) <- e;
        placed := true
      end
    done
  in
  let l = Array.length a in
  for i = ((l + 1) / 3) - 1 downto 0 do
    trickle l i a.(i)
  done;
  for i = l - 1 downto 2 do
    let e = a.(i) in
    a.(i) <- a.(0);
    trickleup (bubble i 0) e
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end
