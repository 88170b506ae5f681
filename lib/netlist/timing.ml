exception Combinational_cycle

(* a structured constant (static data, never young), so the gate array
   below is made without forcing a minor collection *)
let placeholder = { Circuit.kind = Gate.Const0; gname = ""; ins = [||]; out = 0 }

let arrival_times ?(delay = Gate.delay) c =
  let f = Circuit.flatten c in
  let nets = f.Circuit.net_count in
  let arrival = Array.make nets 0 in
  (* the combinational gates, with their pending input counts *)
  let total_gates =
    List.fold_left
      (fun k g -> if Gate.is_sequential g.Circuit.kind then k else k + 1)
      0 f.Circuit.gates
  in
  let comb = Array.make total_gates placeholder in
  let pending = Array.make total_gates 0 in
  (* fanout in compressed rows: the gates reading net [n] are
     [fanout.(first.(n)) .. fanout.(first.(n + 1) - 1)], latest gate
     first, one entry per input pin *)
  let first = Array.make (nets + 1) 0 in
  let comb_driven = Array.make nets false in
  let _ =
    List.fold_left
      (fun idx g ->
        if Gate.is_sequential g.Circuit.kind then idx
        else begin
          comb.(idx) <- g;
          pending.(idx) <- Array.length g.Circuit.ins;
          Array.iter (fun n -> first.(n + 1) <- first.(n + 1) + 1) g.Circuit.ins;
          comb_driven.(g.Circuit.out) <- true;
          idx + 1
        end)
      0 f.Circuit.gates
  in
  for n = 1 to nets do
    first.(n) <- first.(n) + first.(n - 1)
  done;
  let fanout = Array.make first.(nets) 0 in
  let fill = Array.sub first 1 nets in
  Array.iteri
    (fun idx g ->
      Array.iter
        (fun n ->
          fill.(n) <- fill.(n) - 1;
          fanout.(fill.(n)) <- idx)
        g.Circuit.ins)
    comb;
  (* a net is queued once as a source or once per firing driver *)
  let queue = Array.make (nets + total_gates) 0 in
  let head = ref 0 and tail = ref 0 in
  let push n =
    queue.(!tail) <- n;
    incr tail
  in
  (* sources: every net not driven by a combinational gate *)
  for n = 0 to nets - 1 do
    if not comb_driven.(n) then push n
  done;
  let done_gates = ref 0 in
  let fire g =
    incr done_gates;
    let worst = Array.fold_left (fun m i -> max m arrival.(i)) 0 g.Circuit.ins in
    arrival.(g.Circuit.out) <- worst + delay g.Circuit.kind;
    push g.Circuit.out
  in
  (* zero-input gates (constants) have no trigger; settle them now *)
  Array.iter (fun g -> if Array.length g.Circuit.ins = 0 then fire g) comb;
  while !head < !tail do
    let n = queue.(!head) in
    incr head;
    for k = first.(n) to first.(n + 1) - 1 do
      let idx = fanout.(k) in
      let p = pending.(idx) in
      pending.(idx) <- p - 1;
      if p = 1 then fire comb.(idx)
    done
  done;
  if !done_gates <> total_gates then raise Combinational_cycle;
  (f, arrival)

let critical_path ?delay c =
  let f, arrival = arrival_times ?delay c in
  let worst = ref 0 in
  (* sinks: output ports and flip-flop inputs *)
  List.iter
    (fun p ->
      if p.Circuit.dir = Circuit.Out then
        Array.iter (fun n -> worst := max !worst arrival.(n)) p.Circuit.bits)
    f.Circuit.ports;
  List.iter
    (fun g ->
      if Gate.is_sequential g.Circuit.kind then
        Array.iter (fun n -> worst := max !worst arrival.(n)) g.Circuit.ins)
    f.Circuit.gates;
  !worst
