(* Static timing as it was before its tables became arrays: pending
   counts in a [Hashtbl], fanout as per-net lists of (index, gate).
   Kept as the differential oracle for [Sc_netlist.Timing.arrival_times]
   in test_netlist.ml: the arrival arrays must be equal, and
   [Combinational_cycle] raised on the same inputs. *)

open Sc_netlist

let arrival_times ?(delay = Gate.delay) c =
  let f = Circuit.flatten c in
  let arrival = Array.make f.Circuit.net_count 0 in
  (* dependency counts for combinational gates only *)
  let comb =
    List.filter (fun g -> not (Gate.is_sequential g.Circuit.kind)) f.Circuit.gates
  in
  let gates_by_input = Array.make f.Circuit.net_count [] in
  let pending = Hashtbl.create 64 in
  List.iteri
    (fun idx g ->
      Hashtbl.replace pending idx (Array.length g.Circuit.ins);
      Array.iter
        (fun n -> gates_by_input.(n) <- (idx, g) :: gates_by_input.(n))
        g.Circuit.ins)
    comb;
  (* sources: every net not driven by a combinational gate *)
  let comb_driven = Array.make f.Circuit.net_count false in
  List.iter (fun g -> comb_driven.(g.Circuit.out) <- true) comb;
  let queue = Queue.create () in
  for n = 0 to f.Circuit.net_count - 1 do
    if not comb_driven.(n) then Queue.add n queue
  done;
  let done_gates = ref 0 in
  let total_gates = List.length comb in
  (* zero-input gates (constants) have no trigger; settle them now *)
  List.iteri
    (fun idx g ->
      if Array.length g.Circuit.ins = 0 then begin
        Hashtbl.replace pending idx 0;
        incr done_gates;
        arrival.(g.Circuit.out) <- delay g.Circuit.kind;
        Queue.add g.Circuit.out queue
      end)
    comb;
  while not (Queue.is_empty queue) do
    let n = Queue.pop queue in
    List.iter
      (fun (idx, g) ->
        let k = Hashtbl.find pending idx in
        if k = 1 then begin
          Hashtbl.replace pending idx 0;
          incr done_gates;
          let worst =
            Array.fold_left (fun m i -> max m arrival.(i)) 0 g.Circuit.ins
          in
          arrival.(g.Circuit.out) <- worst + delay g.Circuit.kind;
          Queue.add g.Circuit.out queue
        end
        else Hashtbl.replace pending idx (k - 1))
      gates_by_input.(n)
  done;
  if !done_gates <> total_gates then raise Timing.Combinational_cycle;
  (f, arrival)
