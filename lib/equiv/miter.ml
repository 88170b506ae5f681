open Sc_netlist

exception Mismatch of string

type order = Declaration | Fanin_dfs

type env =
  { man : Bdd.man
  ; var_of : (string * int, int) Hashtbl.t
  ; names : (string * int) array
  }

let declaration_order c =
  List.concat_map
    (fun (p : Circuit.port) ->
      List.init (Array.length p.bits) (fun i -> (p.port_name, i)))
    (Circuit.inputs c)

let fanin_dfs_order c =
  let f = Circuit.flatten c in
  (* net -> the inputs of its driving gate *)
  let fanin = Array.make f.Circuit.net_count [||] in
  List.iter
    (fun (g : Circuit.gate_inst) -> fanin.(g.out) <- g.ins)
    f.Circuit.gates;
  (* net -> (port, bit) for input bits *)
  let input_bit = Hashtbl.create 64 in
  List.iter
    (fun (p : Circuit.port) ->
      if p.dir = Circuit.In then
        Array.iteri
          (fun i n ->
            if not (Hashtbl.mem input_bit n) then
              Hashtbl.add input_bit n (p.port_name, i))
          p.bits)
    f.Circuit.ports;
  let visited = Array.make f.Circuit.net_count false in
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let rec visit n =
    if not visited.(n) then begin
      visited.(n) <- true;
      (match Hashtbl.find_opt input_bit n with
      | Some pb ->
        Hashtbl.replace seen pb ();
        acc := pb :: !acc
      | None -> ());
      Array.iter visit fanin.(n)
    end
  in
  List.iter
    (fun (p : Circuit.port) ->
      if p.dir = Circuit.Out then Array.iter visit p.bits)
    f.Circuit.ports;
  (* inputs never reached from an output keep their declaration slot *)
  List.rev_append !acc
    (List.filter (fun pb -> not (Hashtbl.mem seen pb)) (declaration_order c))

let env_of_order man bits =
  let var_of = Hashtbl.create 64 in
  List.iteri (fun i pb -> Hashtbl.replace var_of pb i) bits;
  { man; var_of; names = Array.of_list bits }

let env_of ?(order = Fanin_dfs) man c =
  env_of_order man
    (match order with
    | Declaration -> declaration_order c
    | Fanin_dfs -> fanin_dfs_order c)

let outputs env c =
  let f, topo = Circuit.comb_topo c in
  if List.exists (fun (g : Circuit.gate_inst) -> Gate.is_sequential g.kind) f.Circuit.gates
  then
    invalid_arg
      ("Miter.outputs: " ^ f.Circuit.cname
     ^ " has flip-flops; unroll it first (Unroll.frames)");
  let outs =
    List.filter (fun (p : Circuit.port) -> p.dir = Circuit.Out) f.Circuit.ports
  in
  (* only the outputs' fan-in is evaluated: an unrolled circuit's
     last-frame next-state logic, for one, feeds no output.  Walking the
     topological order backwards visits every reader of a net before
     its driver, and the fold hands the cone back in forward order. *)
  let needed = Array.make f.Circuit.net_count false in
  List.iter
    (fun (p : Circuit.port) -> Array.iter (fun n -> needed.(n) <- true) p.bits)
    outs;
  let cone =
    List.fold_left
      (fun cone (g : Circuit.gate_inst) ->
        if needed.(g.out) then begin
          Array.iter (fun n -> needed.(n) <- true) g.ins;
          g :: cone
        end
        else cone)
      [] (List.rev topo)
  in
  let m = env.man in
  let vals = Array.make f.Circuit.net_count Bdd.zero in
  vals.(Circuit.true_net) <- Bdd.one;
  List.iter
    (fun (p : Circuit.port) ->
      if p.dir = Circuit.In then
        Array.iteri
          (fun i n ->
            match Hashtbl.find_opt env.var_of (p.port_name, i) with
            | Some v -> vals.(n) <- Bdd.var m v
            | None ->
              raise
                (Mismatch
                   (Printf.sprintf "input %s[%d] of %s has no variable"
                      p.port_name i f.Circuit.cname)))
          p.bits)
    f.Circuit.ports;
  List.iter
    (fun (g : Circuit.gate_inst) ->
      let i k = vals.(g.ins.(k)) in
      let v =
        match g.kind with
        | Gate.Inv -> Bdd.not_ m (i 0)
        | Gate.Buf -> i 0
        | Gate.Nand2 -> Bdd.not_ m (Bdd.and_ m (i 0) (i 1))
        | Gate.Nand3 -> Bdd.not_ m (Bdd.and_ m (i 0) (Bdd.and_ m (i 1) (i 2)))
        | Gate.Nor2 -> Bdd.not_ m (Bdd.or_ m (i 0) (i 1))
        | Gate.Nor3 -> Bdd.not_ m (Bdd.or_ m (i 0) (Bdd.or_ m (i 1) (i 2)))
        | Gate.And2 -> Bdd.and_ m (i 0) (i 1)
        | Gate.Or2 -> Bdd.or_ m (i 0) (i 1)
        | Gate.Xor2 -> Bdd.xor m (i 0) (i 1)
        | Gate.Xnor2 -> Bdd.xnor m (i 0) (i 1)
        | Gate.Mux2 -> Bdd.ite m (i 2) (i 1) (i 0)
        | Gate.Const0 -> Bdd.zero
        | Gate.Const1 -> Bdd.one
        | Gate.Dff | Gate.Dffe -> assert false
      in
      vals.(g.out) <- v)
    cone;
  List.map
    (fun (p : Circuit.port) ->
      (p.Circuit.port_name, Array.map (fun n -> vals.(n)) p.Circuit.bits))
    outs

let signature dir c =
  List.sort compare
    (List.filter_map
       (fun (p : Circuit.port) ->
         if p.dir = dir then Some (p.port_name, Array.length p.bits) else None)
       (Circuit.flatten c).Circuit.ports)

let check_signatures a b =
  let complain what (sa : (string * int) list) sb =
    if sa <> sb then
      raise
        (Mismatch
           (Format.asprintf "%s ports differ: %s has {%s}, %s has {%s}" what
              (Circuit.flatten a).Circuit.cname
              (String.concat ", "
                 (List.map (fun (n, w) -> Printf.sprintf "%s[%d]" n w) sa))
              (Circuit.flatten b).Circuit.cname
              (String.concat ", "
                 (List.map (fun (n, w) -> Printf.sprintf "%s[%d]" n w) sb))))
  in
  complain "input" (signature Circuit.In a) (signature Circuit.In b);
  complain "output" (signature Circuit.Out a) (signature Circuit.Out b)

let bdd_of_cover man (cover : Sc_logic.Cover.t) =
  let out = Array.make cover.Sc_logic.Cover.noutputs Bdd.zero in
  List.iter
    (fun (cube : Sc_logic.Cube.t) ->
      let prod = ref Bdd.one in
      Array.iteri
        (fun i lit ->
          match lit with
          | Sc_logic.Cube.Zero ->
            prod := Bdd.and_ man !prod (Bdd.not_ man (Bdd.var man i))
          | Sc_logic.Cube.One -> prod := Bdd.and_ man !prod (Bdd.var man i)
          | Sc_logic.Cube.Dash -> ())
        cube.Sc_logic.Cube.lits;
      for o = 0 to cover.Sc_logic.Cover.noutputs - 1 do
        if cube.Sc_logic.Cube.outputs land (1 lsl o) <> 0 then
          out.(o) <- Bdd.or_ man out.(o) !prod
      done)
    cover.Sc_logic.Cover.cubes;
  out
