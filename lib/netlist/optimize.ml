(* a structured constant (static data, never young), so the gate array
   below is made without forcing a minor collection *)
let placeholder = { Circuit.kind = Gate.Const0; gname = ""; ins = [||]; out = 0 }

(* Union-find over nets: alias.(n) points toward the canonical net.  Only
   gate outputs are ever aliased (to an equivalent existing net), so the
   canonical net always has a real driver. *)

let simplify c =
  Sc_obs.Obs.span "optimize" @@ fun () ->
  let f = Circuit.flatten c in
  Sc_obs.Obs.count "optimize.gates_in" (List.length f.Circuit.gates);
  let n = f.Circuit.net_count in
  let alias = Array.init n (fun i -> i) in
  let rec find i = if alias.(i) = i then i else find alias.(i) in
  let union_to target src = alias.(find src) <- find target in
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
  (* track inverters so inv(inv x) collapses: inverted_of canonical input *)
  let commutative (k : Gate.kind) =
    match k with
    | Gate.Nand2 | Gate.Nor2 | Gate.And2 | Gate.Or2 | Gate.Xor2 | Gate.Xnor2 ->
      true
    | _ -> false
  in
  let changed = ref true in
  let passes = ref 0 in
  while !changed && !passes < 8 do
    changed := false;
    incr passes;
    let cse : (string, int) Hashtbl.t = Hashtbl.create 256 in
    let inv_of : (int, int) Hashtbl.t = Hashtbl.create 64 in
    Array.iteri
      (fun gi g ->
        if alive.(gi) then begin
          let ins = Array.map find g.Circuit.ins in
          let out = g.Circuit.out in
          let kill replacement =
            alive.(gi) <- false;
            union_to replacement out;
            changed := true
          in
          (* 1. full constant folding for combinational gates *)
          let all_const =
            (not (Gate.is_sequential g.Circuit.kind))
            && Array.for_all (fun i -> const_of i <> None) ins
          in
          if all_const then
            kill (cnet (Gate.eval g.Circuit.kind (Array.map (fun i -> Option.get (const_of i)) ins)))
          else begin
            (* 2. partial simplifications *)
            let simplified =
              match (g.Circuit.kind, Array.to_list ins) with
              | Gate.Buf, [ a ] -> Some (`Alias a)
              | Gate.Inv, [ a ] -> (
                match Hashtbl.find_opt inv_of a with
                | Some prior when prior <> out -> Some (`Alias prior)
                | _ -> (
                  (* inv(inv x) = x: is a itself an inverter output? *)
                  match
                    Hashtbl.fold
                      (fun src invd acc -> if invd = a then Some src else acc)
                      inv_of None
                  with
                  | Some src -> Some (`Alias src)
                  | None -> None))
              | Gate.And2, [ a; b ] when a = b -> Some (`Alias a)
              | Gate.Or2, [ a; b ] when a = b -> Some (`Alias a)
              | Gate.Xor2, [ a; b ] when a = b -> Some (`Const false)
              | Gate.Xnor2, [ a; b ] when a = b -> Some (`Const true)
              | Gate.And2, [ a; b ] -> (
                match (const_of a, const_of b) with
                | Some false, _ | _, Some false -> Some (`Const false)
                | Some true, _ -> Some (`Alias b)
                | _, Some true -> Some (`Alias a)
                | _ -> None)
              | Gate.Or2, [ a; b ] -> (
                match (const_of a, const_of b) with
                | Some true, _ | _, Some true -> Some (`Const true)
                | Some false, _ -> Some (`Alias b)
                | _, Some false -> Some (`Alias a)
                | _ -> None)
              | Gate.Xor2, [ a; b ] -> (
                match (const_of a, const_of b) with
                | Some false, _ -> Some (`Alias b)
                | _, Some false -> Some (`Alias a)
                | _ -> None)
              | Gate.Nand2, [ a; b ] -> (
                match (const_of a, const_of b) with
                | Some false, _ | _, Some false -> Some (`Const true)
                | _ -> None)
              | Gate.Nor2, [ a; b ] -> (
                match (const_of a, const_of b) with
                | Some true, _ | _, Some true -> Some (`Const false)
                | _ -> None)
              | Gate.Mux2, [ a0; a1; s ] -> (
                match const_of s with
                | Some false -> Some (`Alias a0)
                | Some true -> Some (`Alias a1)
                | None -> if a0 = a1 then Some (`Alias a0) else None)
              | Gate.Dffe, [ d; en ] -> (
                match const_of en with
                | Some true -> Some (`Rewrite (Gate.Dff, [| d |]))
                | _ -> None)
              | _ -> None
            in
            match simplified with
            | Some (`Alias a) -> kill a
            | Some (`Const b) -> kill (cnet b)
            | Some (`Rewrite (kind, ins')) ->
              gates.(gi) <- { g with Circuit.kind; ins = ins' };
              changed := true
            | None ->
              (* 3. CSE — combinational gates only.  Two registers with
                 the same D input are NOT the same net: they hold
                 distinct state until the clock edge propagates, so
                 merging them changes simulation behaviour.  Sequential
                 gates never enter the table. *)
              if not (Gate.is_sequential g.Circuit.kind) then begin
                let ins_key =
                  let l = Array.to_list ins in
                  let l = if commutative g.Circuit.kind then List.sort compare l else l in
                  String.concat "," (List.map string_of_int l)
                in
                let key = Gate.to_string g.Circuit.kind ^ ":" ^ ins_key in
                match Hashtbl.find_opt cse key with
                | Some prior when prior <> out -> kill prior
                | Some _ -> ()
                | None ->
                  Hashtbl.replace cse key out;
                  if g.Circuit.kind = Gate.Inv then Hashtbl.replace inv_of ins.(0) out
              end;
              (* keep the resolved inputs *)
              if ins <> g.Circuit.ins then begin
                gates.(gi) <- { g with Circuit.ins = ins };
                changed := true
              end
          end
        end)
      gates
  done;
  (* dead-gate elimination: walk back from output ports *)
  let needed = Array.make n false in
  let gate_of_out = Hashtbl.create 256 in
  Array.iteri
    (fun gi g -> if alive.(gi) then Hashtbl.replace gate_of_out g.Circuit.out gi)
    gates;
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
    let net = Queue.pop queue in
    match Hashtbl.find_opt gate_of_out net with
    | Some gi -> Array.iter need gates.(gi).Circuit.ins
    | None -> ()
  done;
  let final_gates =
    Array.to_list gates
    |> List.filteri (fun gi _ -> alive.(gi))
    |> List.filter_map (fun g ->
           let out = find g.Circuit.out in
           if needed.(out) then
             Some { g with Circuit.ins = Array.map find g.Circuit.ins; out }
           else None)
  in
  let ports =
    List.map
      (fun p -> { p with Circuit.bits = Array.map find p.Circuit.bits })
      f.Circuit.ports
  in
  let net_names =
    List.map (fun (net, nm) -> (find net, nm)) f.Circuit.net_names
  in
  Sc_obs.Obs.count "optimize.gates_out" (List.length final_gates);
  Circuit.create ~name:f.Circuit.cname ~ports ~gates:final_gates ~insts:[]
    ~net_count:n ~net_names
