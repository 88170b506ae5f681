type net = int

type port_dir = In | Out

type port = { port_name : string; dir : port_dir; bits : net array }

type gate_inst = { kind : Gate.kind; gname : string; ins : net array; out : net }

type t =
  { cname : string
  ; ports : port list
  ; gates : gate_inst list
  ; insts : inst list
  ; net_count : int
  ; net_names : (net * string) list
  }

and inst = { iname : string; sub : t; conns : (string * net array) list }

let false_net = 0
let true_net = 1

let create ~name ~ports ~gates ~insts ~net_count ~net_names =
  let check_net what n =
    if n < 0 || n >= net_count then
      invalid_arg (Printf.sprintf "Circuit %s: net %d out of range in %s" name n what)
  in
  List.iter
    (fun p -> Array.iter (check_net ("port " ^ p.port_name)) p.bits)
    ports;
  List.iter
    (fun g ->
      if Array.length g.ins <> Gate.arity g.kind then
        invalid_arg
          (Printf.sprintf "Circuit %s: gate %s has %d inputs, %s wants %d" name
             g.gname (Array.length g.ins) (Gate.to_string g.kind)
             (Gate.arity g.kind));
      Array.iter (check_net ("gate " ^ g.gname)) g.ins;
      check_net ("gate " ^ g.gname) g.out)
    gates;
  List.iter
    (fun i ->
      List.iter
        (fun (pname, nets) ->
          match List.find_opt (fun p -> p.port_name = pname) i.sub.ports with
          | None ->
            invalid_arg
              (Printf.sprintf "Circuit %s: instance %s has no port %s" name
                 i.iname pname)
          | Some p ->
            if Array.length nets <> Array.length p.bits then
              invalid_arg
                (Printf.sprintf "Circuit %s: instance %s port %s width %d <> %d"
                   name i.iname pname (Array.length nets) (Array.length p.bits));
            Array.iter (check_net ("instance " ^ i.iname)) nets)
        i.conns;
      (* every sub port must be connected *)
      List.iter
        (fun p ->
          if not (List.mem_assoc p.port_name i.conns) then
            invalid_arg
              (Printf.sprintf "Circuit %s: instance %s leaves port %s open" name
                 i.iname p.port_name))
        i.sub.ports)
    insts;
  { cname = name; ports; gates; insts; net_count; net_names }

let find_port_opt c n = List.find_opt (fun p -> p.port_name = n) c.ports

let inputs c = List.filter (fun p -> p.dir = In) c.ports

let rec flatten c =
  if c.insts = [] then c
  else begin
    let next = ref c.net_count in
    let gates = ref (List.rev c.gates) in
    let names = ref (List.rev c.net_names) in
    let inline (i : inst) =
      let sub = flatten i.sub in
      (* map: sub net -> parent net *)
      let map = Array.make sub.net_count (-1) in
      map.(false_net) <- false_net;
      map.(true_net) <- true_net;
      List.iter
        (fun (pname, nets) ->
          let p = List.find (fun p -> p.port_name = pname) sub.ports in
          Array.iteri
            (fun k bit ->
              if map.(bit) = -1 then map.(bit) <- nets.(k)
              else if map.(bit) <> nets.(k) then
                (* one sub net exposed through two port bits: alias by a
                   buffer so both parent nets carry it *)
                gates :=
                  { kind = Gate.Buf
                  ; gname = i.iname ^ ".alias"
                  ; ins = [| map.(bit) |]
                  ; out = nets.(k)
                  }
                  :: !gates)
            p.bits)
        i.conns;
      for n = 0 to sub.net_count - 1 do
        if map.(n) = -1 then begin
          map.(n) <- !next;
          incr next
        end
      done;
      List.iter
        (fun (n, nm) -> names := (map.(n), i.iname ^ "." ^ nm) :: !names)
        sub.net_names;
      List.iter
        (fun g ->
          gates :=
            { g with
              gname = i.iname ^ "." ^ g.gname
            ; ins = Array.map (fun n -> map.(n)) g.ins
            ; out = map.(g.out)
            }
            :: !gates)
        sub.gates
    in
    List.iter inline c.insts;
    create ~name:c.cname ~ports:c.ports ~gates:(List.rev !gates) ~insts:[]
      ~net_count:!next ~net_names:(List.rev !names)
  end

let drivers c =
  (* count of drivers per net; constants and input ports drive *)
  let d = Array.make c.net_count 0 in
  d.(false_net) <- 1;
  d.(true_net) <- 1;
  List.iter
    (fun p ->
      if p.dir = In then Array.iter (fun b -> d.(b) <- d.(b) + 1) p.bits)
    c.ports;
  List.iter (fun g -> d.(g.out) <- d.(g.out) + 1) c.gates;
  List.iter
    (fun i ->
      List.iter
        (fun (pname, nets) ->
          match List.find_opt (fun p -> p.port_name = pname) i.sub.ports with
          | Some p when p.dir = Out ->
            Array.iter (fun b -> d.(b) <- d.(b) + 1) nets
          | _ -> ())
        i.conns)
    c.insts;
  d

let check c =
  let problems = ref [] in
  let add fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  let d = drivers c in
  if d.(false_net) > 1 then add "constant false net is driven";
  if d.(true_net) > 1 then add "constant true net is driven";
  Array.iteri
    (fun n k ->
      if n > true_net && k > 1 then add "net %d has %d drivers" n k)
    d;
  let need_driver what n =
    if d.(n) = 0 then add "%s uses undriven net %d" what n
  in
  List.iter
    (fun g ->
      Array.iter (need_driver (Printf.sprintf "gate %s" g.gname)) g.ins)
    c.gates;
  List.iter
    (fun p ->
      if p.dir = Out then
        Array.iter (need_driver (Printf.sprintf "output port %s" p.port_name)) p.bits)
    c.ports;
  List.iter
    (fun i ->
      List.iter
        (fun (pname, nets) ->
          match List.find_opt (fun p -> p.port_name = pname) i.sub.ports with
          | Some p when p.dir = In ->
            Array.iter
              (need_driver (Printf.sprintf "instance %s port %s" i.iname pname))
              nets
          | _ -> ())
        i.conns)
    c.insts;
  List.rev !problems

let has_combinational_cycle c =
  let f = flatten c in
  (* adjacency: for each combinational gate, edges in -> out *)
  let succs = Array.make f.net_count [] in
  List.iter
    (fun g ->
      if not (Gate.is_sequential g.kind) then
        Array.iter (fun i -> succs.(i) <- g.out :: succs.(i)) g.ins)
    f.gates;
  let state = Array.make f.net_count 0 in
  (* 0 unvisited, 1 on stack, 2 done *)
  let rec dfs n =
    if state.(n) = 1 then true
    else if state.(n) = 2 then false
    else begin
      state.(n) <- 1;
      let cyc = List.exists dfs succs.(n) in
      state.(n) <- 2;
      cyc
    end
  in
  let rec any n = n < f.net_count && (dfs n || any (n + 1)) in
  any 0

let comb_topo c =
  let f = flatten c in
  let comb = List.filter (fun g -> not (Gate.is_sequential g.kind)) f.gates in
  (* Kahn's algorithm over nets: a gate is ready when all its input nets
     have settled; nets not driven by a combinational gate are sources *)
  let by_input = Array.make f.net_count [] in
  let pending = Array.of_list (List.map (fun g -> Array.length g.ins) comb) in
  List.iteri
    (fun idx g ->
      Array.iter (fun n -> by_input.(n) <- idx :: by_input.(n)) g.ins)
    comb;
  let comb_arr = Array.of_list comb in
  let comb_driven = Array.make f.net_count false in
  List.iter (fun g -> comb_driven.(g.out) <- true) comb;
  let queue = Queue.create () in
  for n = 0 to f.net_count - 1 do
    if not comb_driven.(n) then Queue.add n queue
  done;
  let order = ref [] in
  let emitted = ref 0 in
  Array.iteri
    (fun idx g ->
      if Array.length g.ins = 0 then begin
        (* constants: no trigger, ready immediately *)
        pending.(idx) <- -1;
        incr emitted;
        order := comb_arr.(idx) :: !order;
        Queue.add g.out queue
      end)
    comb_arr;
  while not (Queue.is_empty queue) do
    let n = Queue.pop queue in
    List.iter
      (fun idx ->
        if pending.(idx) > 0 then begin
          pending.(idx) <- pending.(idx) - 1;
          if pending.(idx) = 0 then begin
            incr emitted;
            order := comb_arr.(idx) :: !order;
            Queue.add comb_arr.(idx).out queue
          end
        end)
      by_input.(n)
  done;
  if !emitted <> Array.length comb_arr then
    invalid_arg ("Circuit.comb_topo: combinational cycle in " ^ f.cname);
  (f, List.rev !order)

type stats =
  { gate_total : int
  ; by_kind : (Gate.kind * int) list
  ; flipflops : int
  ; transistors : int
  ; module_instances : int
  }

let stats c =
  let counts = Hashtbl.create 16 in
  let insts = ref 0 in
  let rec go c mult =
    List.iter
      (fun g ->
        let k = try Hashtbl.find counts g.kind with Not_found -> 0 in
        Hashtbl.replace counts g.kind (k + mult))
      c.gates;
    List.iter
      (fun i ->
        insts := !insts + mult;
        go i.sub mult)
      c.insts
  in
  go c 1;
  let by_kind =
    List.filter_map
      (fun k ->
        match Hashtbl.find_opt counts k with
        | Some n when n > 0 -> Some (k, n)
        | _ -> None)
      Gate.all
  in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 by_kind in
  let ffs =
    List.fold_left
      (fun acc (k, n) -> if Gate.is_sequential k then acc + n else acc)
      0 by_kind
  in
  let trans =
    List.fold_left (fun acc (k, n) -> acc + (n * Gate.transistors k)) 0 by_kind
  in
  { gate_total = total
  ; by_kind
  ; flipflops = ffs
  ; transistors = trans
  ; module_instances = !insts
  }
