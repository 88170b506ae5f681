(* a structured constant (static data, never young), so the gate array
   below is made without forcing a minor collection *)
let placeholder = { Circuit.kind = Gate.Const0; gname = ""; ins = [||]; out = 0 }

(* The common-subexpression key: a gate's kind and its at most three
   canonical inputs, -1 where the kind has fewer. *)
module Key = struct
  type t = { kind : Gate.kind; a : int; b : int; c : int }

  let equal x y = x.kind = y.kind && x.a = y.a && x.b = y.b && x.c = y.c

  let hash = Hashtbl.hash
end

module Cse = Hashtbl.Make (Key)

let commutative (k : Gate.kind) =
  match k with
  | Gate.Nand2 | Gate.Nor2 | Gate.And2 | Gate.Or2 | Gate.Xor2 | Gate.Xnor2 -> true
  | _ -> false

let key kind ins =
  match Array.length ins with
  | 0 -> { Key.kind; a = -1; b = -1; c = -1 }
  | 1 -> { kind; a = ins.(0); b = -1; c = -1 }
  | 2 ->
    let a = ins.(0) and b = ins.(1) in
    if commutative kind && b < a then { kind; a = b; b = a; c = -1 }
    else { kind; a; b; c = -1 }
  | _ -> { kind; a = ins.(0); b = ins.(1); c = ins.(2) }

(* What a gate becomes: kept (perhaps with resolved inputs), replaced
   by an existing net, or rewritten as another gate. *)
type action = Keep | Alias of int | Rewrite of Gate.kind * int array

let simplify c =
  Sc_obs.Obs.span "optimize" @@ fun () ->
  let f = Circuit.flatten c in
  Sc_obs.Obs.count "optimize.gates_in" (List.length f.Circuit.gates);
  let n = f.Circuit.net_count in
  (* Union-find over nets: [find] gives the canonical net.  Only gate
     outputs are ever aliased (to an equivalent existing net), so the
     canonical net always has a real driver. *)
  let alias = Sc_geom.Union_find.create n in
  let find = Sc_geom.Union_find.find alias in
  let union_to target src = Sc_geom.Union_find.union alias src target in
  (* [ins] itself when every input is canonical, else a resolved copy *)
  let resolve ins =
    let rec same k = k = Array.length ins || (find ins.(k) = ins.(k) && same (k + 1)) in
    if same 0 then ins else Array.map find ins
  in
  let gates = Array.make (List.length f.Circuit.gates) placeholder in
  List.iteri (fun gi g -> gates.(gi) <- g) f.Circuit.gates;
  let alive = Array.make (Array.length gates) true in
  let const_of net =
    let r = find net in
    if r = Circuit.false_net then Some false
    else if r = Circuit.true_net then Some true
    else None
  in
  let cnet b = if b then Circuit.true_net else Circuit.false_net in
  let cse = Cse.create (Array.length gates) in
  (* the inverters recorded in [cse] this pass, both ways: [inv_of] from
     canonical input to output (-1 if none), [inv_in] from output back
     to input, so inv(inv x) collapses *)
  let inv_of = Array.make n (-1) and inv_in = Array.make n (-1) in
  let changed = ref true in
  let passes = ref 0 in
  while !changed && !passes < 8 do
    changed := false;
    incr passes;
    Cse.clear cse;
    Array.fill inv_of 0 n (-1);
    Array.fill inv_in 0 n (-1);
    Array.iteri
      (fun gi g ->
        if alive.(gi) then begin
          let kind = g.Circuit.kind in
          let ins = resolve g.Circuit.ins in
          let out = g.Circuit.out in
          let kill replacement =
            alive.(gi) <- false;
            union_to replacement out;
            changed := true
          in
          (* 1. full constant folding for combinational gates *)
          let all_const =
            (not (Gate.is_sequential kind))
            && Array.for_all (fun i -> const_of i <> None) ins
          in
          if all_const then
            kill (cnet (Gate.eval kind (Array.map (fun i -> Option.get (const_of i)) ins)))
          else begin
            (* 2. partial simplifications *)
            let simplified =
              match kind with
              | Gate.Buf -> Alias ins.(0)
              | Gate.Inv ->
                let a = ins.(0) in
                let prior = inv_of.(a) in
                if prior >= 0 && prior <> out then Alias prior
                  (* inv(inv x) = x: is a itself an inverter output? *)
                else if inv_in.(a) >= 0 then Alias inv_in.(a)
                else Keep
              | Gate.And2 | Gate.Or2 when ins.(0) = ins.(1) -> Alias ins.(0)
              | Gate.Xor2 when ins.(0) = ins.(1) -> Alias (cnet false)
              | Gate.Xnor2 when ins.(0) = ins.(1) -> Alias (cnet true)
              | Gate.And2 -> (
                match (const_of ins.(0), const_of ins.(1)) with
                | Some false, _ | _, Some false -> Alias (cnet false)
                | Some true, _ -> Alias ins.(1)
                | _, Some true -> Alias ins.(0)
                | _ -> Keep)
              | Gate.Or2 -> (
                match (const_of ins.(0), const_of ins.(1)) with
                | Some true, _ | _, Some true -> Alias (cnet true)
                | Some false, _ -> Alias ins.(1)
                | _, Some false -> Alias ins.(0)
                | _ -> Keep)
              | Gate.Xor2 -> (
                match (const_of ins.(0), const_of ins.(1)) with
                | Some false, _ -> Alias ins.(1)
                | _, Some false -> Alias ins.(0)
                | _ -> Keep)
              | Gate.Nand2 -> (
                match (const_of ins.(0), const_of ins.(1)) with
                | Some false, _ | _, Some false -> Alias (cnet true)
                | _ -> Keep)
              | Gate.Nor2 -> (
                match (const_of ins.(0), const_of ins.(1)) with
                | Some true, _ | _, Some true -> Alias (cnet false)
                | _ -> Keep)
              | Gate.Mux2 -> (
                match const_of ins.(2) with
                | Some false -> Alias ins.(0)
                | Some true -> Alias ins.(1)
                | None -> if ins.(0) = ins.(1) then Alias ins.(0) else Keep)
              | Gate.Dffe -> (
                match const_of ins.(1) with
                | Some true -> Rewrite (Gate.Dff, [| ins.(0) |])
                | _ -> Keep)
              | _ -> Keep
            in
            match simplified with
            | Alias a -> kill a
            | Rewrite (kind, ins') ->
              gates.(gi) <- { g with Circuit.kind; ins = ins' };
              changed := true
            | Keep ->
              (* 3. CSE — combinational gates only.  Two registers with
                 the same D input are NOT the same net: they hold
                 distinct state until the clock edge propagates, so
                 merging them changes simulation behaviour.  Sequential
                 gates never enter the table. *)
              if not (Gate.is_sequential kind) then begin
                let key = key kind ins in
                match Cse.find cse key with
                | prior -> if prior <> out then kill prior
                | exception Not_found ->
                  Cse.replace cse key out;
                  if kind = Gate.Inv then begin
                    inv_of.(ins.(0)) <- out;
                    inv_in.(out) <- ins.(0)
                  end
              end;
              (* keep the resolved inputs *)
              if ins != g.Circuit.ins then begin
                gates.(gi) <- { g with Circuit.ins = ins };
                changed := true
              end
          end
        end)
      gates
  done;
  (* dead-gate elimination: walk back from output ports *)
  let needed = Array.make n false in
  let gate_of_out = Array.make n (-1) in
  Array.iteri (fun gi g -> if alive.(gi) then gate_of_out.(g.Circuit.out) <- gi) gates;
  let queue = Queue.create () in
  let need net =
    let r = find net in
    if not needed.(r) then begin
      needed.(r) <- true;
      Queue.add r queue
    end
  in
  List.iter
    (fun p ->
      if p.Circuit.dir = Circuit.Out then Array.iter need p.Circuit.bits)
    f.Circuit.ports;
  while not (Queue.is_empty queue) do
    let gi = gate_of_out.(Queue.pop queue) in
    if gi >= 0 then Array.iter need gates.(gi).Circuit.ins
  done;
  let final_gates = ref [] and kept = ref 0 in
  for gi = Array.length gates - 1 downto 0 do
    let g = gates.(gi) in
    if alive.(gi) then begin
      let out = find g.Circuit.out in
      if needed.(out) then begin
        final_gates := { g with Circuit.ins = resolve g.Circuit.ins; out } :: !final_gates;
        incr kept
      end
    end
  done;
  let ports =
    List.map
      (fun p -> { p with Circuit.bits = Array.map find p.Circuit.bits })
      f.Circuit.ports
  in
  let net_names =
    List.map (fun (net, nm) -> (find net, nm)) f.Circuit.net_names
  in
  Sc_obs.Obs.count "optimize.gates_out" !kept;
  Circuit.create ~name:f.Circuit.cname ~ports ~gates:!final_gates ~insts:[]
    ~net_count:n ~net_names
