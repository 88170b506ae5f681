open Sc_netlist

type t =
  { flat : Circuit.t
  ; values : Value.t array  (* per net *)
  ; gates : Circuit.gate_inst array
  ; fanout : int list array  (* net -> indices of gates reading it *)
  ; queued : bool array  (* per gate: already scheduled *)
  ; queue : int Queue.t
  }

let schedule t idx =
  if not t.queued.(idx) then begin
    t.queued.(idx) <- true;
    Queue.add idx t.queue
  end

let set_net t n v =
  if not (Value.equal t.values.(n) v) then begin
    t.values.(n) <- v;
    List.iter (schedule t) t.fanout.(n)
  end

let settle t =
  while not (Queue.is_empty t.queue) do
    let idx = Queue.pop t.queue in
    t.queued.(idx) <- false;
    let g = t.gates.(idx) in
    if not (Gate.is_sequential g.Circuit.kind) then begin
      let ins = Array.map (fun n -> t.values.(n)) g.Circuit.ins in
      set_net t g.Circuit.out (Value.eval_gate g.Circuit.kind ins)
    end
  done

let create c =
  (match Circuit.check c with
  | [] -> ()
  | p :: _ -> invalid_arg ("Engine.create: " ^ p));
  if Circuit.has_combinational_cycle c then
    invalid_arg "Engine.create: combinational cycle";
  let flat = Circuit.flatten c in
  let gates = Array.of_list flat.Circuit.gates in
  let values = Array.make flat.Circuit.net_count Value.VX in
  values.(Circuit.false_net) <- Value.V0;
  values.(Circuit.true_net) <- Value.V1;
  let fanout = Array.make flat.Circuit.net_count [] in
  Array.iteri
    (fun idx g ->
      Array.iter (fun n -> fanout.(n) <- idx :: fanout.(n)) g.Circuit.ins)
    gates;
  let t =
    { flat
    ; values
    ; gates
    ; fanout
    ; queued = Array.make (Array.length gates) false
    ; queue = Queue.create ()
    }
  in
  (* evaluate everything once so constants and defaults propagate *)
  Array.iteri (fun idx _ -> schedule t idx) gates;
  settle t;
  t

let port t name =
  match Circuit.find_port_opt t.flat name with
  | Some p -> p
  | None -> raise Not_found

let set_input t name vs =
  let p = port t name in
  if p.Circuit.dir <> Circuit.In then
    invalid_arg ("Engine.set_input: not an input port: " ^ name);
  if Array.length vs <> Array.length p.Circuit.bits then
    invalid_arg ("Engine.set_input: width mismatch on " ^ name);
  Array.iteri (fun i n -> set_net t n vs.(i)) p.Circuit.bits;
  settle t

let set_input_int t name v =
  let p = port t name in
  let w = Array.length p.Circuit.bits in
  set_input t name
    (Array.init w (fun i -> Value.of_bool (v land (1 lsl i) <> 0)))

let force_registers t v =
  Array.iter
    (fun g ->
      if Gate.is_sequential g.Circuit.kind then set_net t g.Circuit.out v)
    t.gates;
  settle t

let step t =
  (* sample all flip-flop inputs simultaneously, then update outputs *)
  let updates = ref [] in
  Array.iter
    (fun g ->
      match g.Circuit.kind with
      | Gate.Dff ->
        updates := (g.Circuit.out, t.values.(g.Circuit.ins.(0))) :: !updates
      | Gate.Dffe ->
        let d = t.values.(g.Circuit.ins.(0))
        and en = t.values.(g.Circuit.ins.(1)) in
        let q = t.values.(g.Circuit.out) in
        let next =
          match en with
          | Value.V1 -> d
          | Value.V0 -> q
          | Value.VX -> if Value.equal d q then d else Value.VX
        in
        updates := (g.Circuit.out, next) :: !updates
      | _ -> ())
    t.gates;
  List.iter (fun (n, v) -> set_net t n v) !updates;
  settle t

let get_output t name =
  let p = port t name in
  Array.map (fun n -> t.values.(n)) p.Circuit.bits

let get_output_int t name =
  let vs = get_output t name in
  let rec go i acc =
    if i >= Array.length vs then Some acc
    else
      match Value.to_bool vs.(i) with
      | Some true -> go (i + 1) (acc lor (1 lsl i))
      | Some false -> go (i + 1) acc
      | None -> None
  in
  go 0 0
