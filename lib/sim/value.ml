open Sc_netlist

type t = V0 | V1 | VX

let of_bool b = if b then V1 else V0
let to_bool = function V0 -> Some false | V1 -> Some true | VX -> None

let inv = function V0 -> V1 | V1 -> V0 | VX -> VX

let and_ a b =
  match (a, b) with
  | V0, _ | _, V0 -> V0
  | V1, V1 -> V1
  | _ -> VX

let or_ a b =
  match (a, b) with
  | V1, _ | _, V1 -> V1
  | V0, V0 -> V0
  | _ -> VX

let xor a b =
  match (a, b) with
  | VX, _ | _, VX -> VX
  | _ -> if a = b then V0 else V1

let mux a0 a1 sel =
  match sel with
  | V0 -> a0
  | V1 -> a1
  | VX -> if a0 = a1 && a0 <> VX then a0 else VX

let eval_gate kind ins =
  match (kind : Gate.kind) with
  | Gate.Inv -> inv ins.(0)
  | Gate.Buf -> ins.(0)
  | Gate.Nand2 -> inv (and_ ins.(0) ins.(1))
  | Gate.Nand3 -> inv (and_ ins.(0) (and_ ins.(1) ins.(2)))
  | Gate.Nor2 -> inv (or_ ins.(0) ins.(1))
  | Gate.Nor3 -> inv (or_ ins.(0) (or_ ins.(1) ins.(2)))
  | Gate.And2 -> and_ ins.(0) ins.(1)
  | Gate.Or2 -> or_ ins.(0) ins.(1)
  | Gate.Xor2 -> xor ins.(0) ins.(1)
  | Gate.Xnor2 -> inv (xor ins.(0) ins.(1))
  | Gate.Mux2 -> mux ins.(0) ins.(1) ins.(2)
  | Gate.Const0 -> V0
  | Gate.Const1 -> V1
  | Gate.Dff | Gate.Dffe -> invalid_arg "Value.eval_gate: sequential gate"

let equal (a : t) b = a = b
