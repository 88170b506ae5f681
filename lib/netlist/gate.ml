type kind =
  | Inv
  | Buf
  | Nand2
  | Nand3
  | Nor2
  | Nor3
  | And2
  | Or2
  | Xor2
  | Xnor2
  | Mux2
  | Dff
  | Dffe
  | Const0
  | Const1

let arity = function
  | Inv | Buf | Dff -> 1
  | Nand2 | Nor2 | And2 | Or2 | Xor2 | Xnor2 | Dffe -> 2
  | Nand3 | Nor3 | Mux2 -> 3
  | Const0 | Const1 -> 0

let is_sequential = function
  | Dff | Dffe -> true
  | Inv | Buf | Nand2 | Nand3 | Nor2 | Nor3 | And2 | Or2 | Xor2 | Xnor2 | Mux2
  | Const0 | Const1 -> false

let eval kind ins =
  if is_sequential kind then invalid_arg "Gate.eval: sequential gate";
  if Array.length ins <> arity kind then invalid_arg "Gate.eval: arity";
  match kind with
  | Inv -> not ins.(0)
  | Buf -> ins.(0)
  | Nand2 -> not (ins.(0) && ins.(1))
  | Nand3 -> not (ins.(0) && ins.(1) && ins.(2))
  | Nor2 -> not (ins.(0) || ins.(1))
  | Nor3 -> not (ins.(0) || ins.(1) || ins.(2))
  | And2 -> ins.(0) && ins.(1)
  | Or2 -> ins.(0) || ins.(1)
  | Xor2 -> ins.(0) <> ins.(1)
  | Xnor2 -> ins.(0) = ins.(1)
  | Mux2 -> if ins.(2) then ins.(1) else ins.(0)
  | Const0 -> false
  | Const1 -> true
  | Dff | Dffe -> assert false

(* NMOS costs: an n-input inverting gate is n pull-downs plus one depletion
   load; composites add an output inverter; the mux is two pass paths plus
   select inversion; the flip-flop is the classic 2-latch master-slave. *)
let transistors = function
  | Inv -> 2
  | Buf -> 4
  | Nand2 | Nor2 -> 3
  | Nand3 | Nor3 -> 4
  | And2 | Or2 -> 5
  | Xor2 | Xnor2 -> 8
  | Mux2 -> 6
  | Dff -> 16
  | Dffe -> 22
  | Const0 | Const1 -> 0

let delay = function
  | Inv -> 1
  | Buf -> 2
  | Nand2 | Nor2 -> 1
  | Nand3 | Nor3 -> 2
  | And2 | Or2 -> 2
  | Xor2 | Xnor2 -> 3
  | Mux2 -> 2
  | Dff | Dffe -> 0
  | Const0 | Const1 -> 0

let all =
  [ Inv; Buf; Nand2; Nand3; Nor2; Nor3; And2; Or2; Xor2; Xnor2; Mux2; Dff
  ; Dffe; Const0; Const1
  ]

let to_string = function
  | Inv -> "inv"
  | Buf -> "buf"
  | Nand2 -> "nand2"
  | Nand3 -> "nand3"
  | Nor2 -> "nor2"
  | Nor3 -> "nor3"
  | And2 -> "and2"
  | Or2 -> "or2"
  | Xor2 -> "xor2"
  | Xnor2 -> "xnor2"
  | Mux2 -> "mux2"
  | Dff -> "dff"
  | Dffe -> "dffe"
  | Const0 -> "const0"
  | Const1 -> "const1"
