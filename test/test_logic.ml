open Sc_logic

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let bits_of_int n v = Array.init n (fun i -> v land (1 lsl i) <> 0)

let brute_equal ?dontcare a b =
  let n = a.Cover.ninputs in
  let care v =
    match dontcare with
    | None -> true
    | Some dc ->
      (* a minterm is a care point for output o when dc does not cover it;
         compare outputs only at care points *)
      ignore dc;
      ignore v;
      true
  in
  let ok = ref true in
  for v = 0 to (1 lsl n) - 1 do
    if care v then begin
      let ea = Cover.eval a (bits_of_int n v) in
      let eb = Cover.eval b (bits_of_int n v) in
      (match dontcare with
      | None -> if ea <> eb then ok := false
      | Some dc ->
        let edc = Cover.eval dc (bits_of_int n v) in
        Array.iteri
          (fun o va -> if (not edc.(o)) && va <> eb.(o) then ok := false)
          ea)
    end
  done;
  !ok

(* --- cube unit tests --- *)

let test_cube_basics () =
  let c = Cube.of_string "01-" 1 in
  check_int "inputs" 3 (Cube.num_inputs c);
  check_int "free" 1 (Cube.free_count c);
  check_bool "covers 010" true (Cube.covers_input c [| false; true; false |]);
  check_bool "covers 011" true (Cube.covers_input c [| false; true; true |]);
  check_bool "not 110" false (Cube.covers_input c [| true; true; false |])

let test_cube_merge () =
  let a = Cube.of_string "010" 3 and b = Cube.of_string "011" 1 in
  (match Cube.merge a b with
  | Some m ->
    Alcotest.(check string) "merged" "01-#1" (Cube.to_string m)
  | None -> Alcotest.fail "expected merge");
  (* distance 2: no merge *)
  check_bool "no merge at distance 2" true
    (Cube.merge (Cube.of_string "00-" 1) (Cube.of_string "11-" 1) = None);
  (* differing dash positions: no merge *)
  check_bool "no merge with misaligned dashes" true
    (Cube.merge (Cube.of_string "0-0" 1) (Cube.of_string "100" 1) = None)

let test_cube_inter () =
  let a = Cube.of_string "1--" 3 and b = Cube.of_string "-0-" 1 in
  (match Cube.inter a b with
  | Some i -> Alcotest.(check string) "inter" "10-#1" (Cube.to_string i)
  | None -> Alcotest.fail "expected intersection");
  check_bool "disjoint inputs" true
    (Cube.inter (Cube.of_string "1--" 1) (Cube.of_string "0--" 1) = None);
  check_bool "disjoint outputs" true
    (Cube.inter (Cube.of_string "---" 2) (Cube.of_string "---" 1) = None)

(* --- cover tests --- *)

(* a cover is a tautology when it covers the cube of all Dashes *)
let test_tautology () =
  let everything = Cube.of_string "--" 1 in
  let t =
    Cover.of_rows ~ninputs:2 ~noutputs:1 [ ("1-", "1"); ("0-", "1") ]
  in
  check_bool "x | !x is tautology" true (Cover.cube_covered everything t);
  let nt = Cover.of_rows ~ninputs:2 ~noutputs:1 [ ("1-", "1"); ("01", "1") ] in
  check_bool "x | (!x & y) is not" false (Cover.cube_covered everything nt)

let test_cube_covered () =
  let f =
    Cover.of_rows ~ninputs:3 ~noutputs:1
      [ ("11-", "1"); ("1-1", "1"); ("-11", "1"); ("110", "1") ]
  in
  check_bool "11- covered" true (Cover.cube_covered (Cube.of_string "11-" 1) f);
  check_bool "1-- not covered" false
    (Cover.cube_covered (Cube.of_string "1--" 1) f)

(* equivalence on the care set: every cube of each cover is covered by
   the other widened with the don't-cares *)
let equivalent ?dontcare a b =
  let widen c = match dontcare with Some dc -> Cover.union c dc | None -> c in
  let covered_by x y = List.for_all (fun c -> Cover.cube_covered c y) x.Cover.cubes in
  covered_by a (widen b) && covered_by b (widen a)

let test_equivalent () =
  let a = Cover.of_rows ~ninputs:2 ~noutputs:1 [ ("10", "1"); ("11", "1") ] in
  let b = Cover.of_rows ~ninputs:2 ~noutputs:1 [ ("1-", "1") ] in
  check_bool "a = x" true (equivalent a b);
  let c = Cover.of_rows ~ninputs:2 ~noutputs:1 [ ("-1", "1") ] in
  check_bool "x <> y" false (equivalent a c)

(* --- minimization --- *)

let full_adder =
  (* inputs a b cin; outputs sum carry *)
  Cover.of_function ~ninputs:3 ~noutputs:2 (fun bits ->
      let a = bits.(0) and b = bits.(1) and cin = bits.(2) in
      let sum = a <> b <> cin in
      let carry = (a && b) || (a && cin) || (b && cin) in
      [| sum; carry |])

let test_qm_full_adder () =
  let m = Minimize.minimize ~exact:true full_adder in
  check_bool "equivalent" true (brute_equal full_adder m);
  (* sum needs its 4 minterms, carry its 3 primes, but ab.cin is shared:
     the classic multi-output minimum is 7 terms or fewer *)
  check_bool "term count sane" true (Cover.term_count m <= 7);
  check_bool "verify" true (equivalent full_adder m)

let test_qm_collapse_to_one () =
  let f = Cover.of_rows ~ninputs:2 ~noutputs:1 [ ("10", "1"); ("11", "1") ] in
  let m = Minimize.minimize ~exact:true f in
  check_int "single cube" 1 (Cover.term_count m);
  check_bool "equivalent" true (brute_equal f m)

let test_qm_with_dontcare () =
  let f = Cover.of_rows ~ninputs:2 ~noutputs:1 [ ("10", "1") ] in
  let dc = Cover.of_rows ~ninputs:2 ~noutputs:1 [ ("11", "1") ] in
  let m = Minimize.minimize ~dontcare:dc ~exact:true f in
  check_int "dc absorbed" 1 (Cover.term_count m);
  check_int "one literal" 1
    (List.fold_left
       (fun n c -> n + (m.Cover.ninputs - Cube.free_count c))
       0 m.Cover.cubes);
  check_bool "care-set equivalent" true (brute_equal ~dontcare:dc f m)

let test_heuristic_full_adder () =
  let m = Minimize.heuristic full_adder in
  check_bool "equivalent" true (brute_equal full_adder m)

let test_seven_seg_decoder () =
  (* BCD to 7-segment (0-9, 10-15 don't care) is the classic multi-output
     example; check the minimizer shrinks it and stays correct. *)
  let segs v =
    (* segments a-g for digit v *)
    let table =
      [| 0b1111110; 0b0110000; 0b1101101; 0b1111001; 0b0110011
       ; 0b1011011; 0b1011111; 0b1110000; 0b1111111; 0b1111011
      |]
    in
    table.(v)
  in
  let on = ref [] in
  let dc = ref [] in
  for v = 0 to 15 do
    let bits = bits_of_int 4 v in
    if v <= 9 then begin
      let mask = segs v in
      if mask <> 0 then on := Cube.minterm bits mask :: !on
    end
    else dc := Cube.minterm bits 0b1111111 :: !dc
  done;
  let on = Cover.make ~ninputs:4 ~noutputs:7 !on in
  let dc = Cover.make ~ninputs:4 ~noutputs:7 !dc in
  let m = Minimize.minimize ~dontcare:dc ~exact:true on in
  check_bool "shrinks" true (Cover.term_count m < Cover.term_count on);
  check_bool "care-set equivalent" true (brute_equal ~dontcare:dc on m);
  check_bool "verify" true (equivalent ~dontcare:dc on m)

(* --- properties --- *)

let gen_cover =
  let open QCheck.Gen in
  let* n = int_range 2 5 in
  let* m = int_range 1 3 in
  let gen_lit = oneofl [ Cube.Zero; Cube.One; Cube.Dash ] in
  let gen_cube =
    let* lits = array_size (return n) gen_lit in
    let* mask = int_range 1 ((1 lsl m) - 1) in
    return (Cube.make lits mask)
  in
  let* cubes = list_size (int_range 1 8) gen_cube in
  return (Cover.make ~ninputs:n ~noutputs:m cubes)

let prop_minimize_equivalent engine name =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:150 (QCheck.make gen_cover) (fun cover ->
         let m = engine cover in
         brute_equal cover m))

let prop_exact = prop_minimize_equivalent
    (fun c -> Minimize.minimize ~exact:true c)
    "exact minimization preserves the function"

let prop_heuristic = prop_minimize_equivalent
    Minimize.heuristic
    "heuristic minimization preserves the function"

let prop_exact_not_bigger =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"minimization never grows literal cost wildly"
       ~count:100 (QCheck.make gen_cover) (fun cover ->
         let m = Minimize.minimize ~exact:true cover in
         Cover.term_count m <= max 1 (Cover.term_count cover)))

let suite =
  [ Alcotest.test_case "cube basics" `Quick test_cube_basics
  ; Alcotest.test_case "cube merge" `Quick test_cube_merge
  ; Alcotest.test_case "cube intersection" `Quick test_cube_inter
  ; Alcotest.test_case "tautology" `Quick test_tautology
  ; Alcotest.test_case "cube covered by cover" `Quick test_cube_covered
  ; Alcotest.test_case "cover equivalence" `Quick test_equivalent
  ; Alcotest.test_case "QM full adder" `Quick test_qm_full_adder
  ; Alcotest.test_case "QM collapses pair" `Quick test_qm_collapse_to_one
  ; Alcotest.test_case "QM with dont-cares" `Quick test_qm_with_dontcare
  ; Alcotest.test_case "heuristic full adder" `Quick test_heuristic_full_adder
  ; Alcotest.test_case "7-segment decoder" `Quick test_seven_seg_decoder
  ; prop_exact
  ; prop_heuristic
  ; prop_exact_not_bigger
  ]
