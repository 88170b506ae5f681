type t =
  { name : string
  ; mutable next_net : int
  ; mutable ports : Circuit.port list
  ; mutable gates : Circuit.gate_inst list
  ; mutable insts : Circuit.inst list
  ; mutable net_names : (Circuit.net * string) list
  ; mutable gate_counter : int
  ; mutable inst_counter : int
  }

let create name =
  { name
  ; next_net = 2 (* 0 and 1 are the constants *)
  ; ports = []
  ; gates = []
  ; insts = []
  ; net_names = []
  ; gate_counter = 0
  ; inst_counter = 0
  }

let fresh b =
  let n = b.next_net in
  b.next_net <- n + 1;
  n

let fresh_vec b w = Array.init w (fun _ -> fresh b)

let name_net b n s = b.net_names <- (n, s) :: b.net_names

let input b name width =
  let bits = fresh_vec b width in
  b.ports <- { Circuit.port_name = name; dir = Circuit.In; bits } :: b.ports;
  Array.iteri (fun i n -> name_net b n (Printf.sprintf "%s[%d]" name i)) bits;
  bits

let output b name bits =
  b.ports <-
    { Circuit.port_name = name; dir = Circuit.Out; bits = Array.copy bits }
    :: b.ports

let gate_name b = function
  | Some n -> n
  | None ->
    b.gate_counter <- b.gate_counter + 1;
    Printf.sprintf "g%d" b.gate_counter

let gate_into b ?name kind ins out =
  b.gates <-
    { Circuit.kind; gname = gate_name b name; ins = Array.copy ins; out }
    :: b.gates

let gate b ?name kind ins =
  let out = fresh b in
  gate_into b ?name kind ins out;
  out

let inst b ?name sub conns =
  let iname =
    match name with
    | Some n -> n
    | None ->
      b.inst_counter <- b.inst_counter + 1;
      Printf.sprintf "u%d" b.inst_counter
  in
  b.insts <- { Circuit.iname; sub; conns } :: b.insts

let const0 = Circuit.false_net
let const1 = Circuit.true_net

let not_ b a = gate b Gate.Inv [| a |]
let and2 b x y = gate b Gate.And2 [| x; y |]
let or2 b x y = gate b Gate.Or2 [| x; y |]
let xor2 b x y = gate b Gate.Xor2 [| x; y |]
let mux2 b ~sel a0 a1 = gate b Gate.Mux2 [| a0; a1; sel |]

let rec reduce op neutral b = function
  | [] -> neutral
  | [ n ] -> n
  | ns ->
    (* pair up for a balanced tree *)
    let rec pairs = function
      | a :: c :: rest -> op b a c :: pairs rest
      | [ a ] -> [ a ]
      | [] -> []
    in
    reduce op neutral b (pairs ns)

let and_reduce b ns = reduce and2 const1 b ns
let or_reduce b ns = reduce or2 const0 b ns

let mux_vec b ~sel a0 a1 =
  if Array.length a0 <> Array.length a1 then
    invalid_arg "Builder.mux_vec: width mismatch";
  Array.init (Array.length a0) (fun i -> mux2 b ~sel a0.(i) a1.(i))

let adder b ?(cin = const0) xs ys =
  if Array.length xs <> Array.length ys then
    invalid_arg "Builder.adder: width mismatch";
  let w = Array.length xs in
  let sums = Array.make w const0 in
  let carry = ref cin in
  for i = 0 to w - 1 do
    let p = xor2 b xs.(i) ys.(i) in
    sums.(i) <- xor2 b p !carry;
    let g = and2 b xs.(i) ys.(i) in
    let pc = and2 b p !carry in
    carry := or2 b g pc
  done;
  (sums, !carry)

let finish b =
  Circuit.create ~name:b.name ~ports:(List.rev b.ports)
    ~gates:(List.rev b.gates) ~insts:(List.rev b.insts) ~net_count:b.next_net
    ~net_names:(List.rev b.net_names)
