type t =
  { design : Ast.design
  ; inputs : (string, int) Hashtbl.t
  ; regs : (string, int) Hashtbl.t
  ; outputs : (string, int) Hashtbl.t
  }

let mask w v = v land ((1 lsl w) - 1)

let create design =
  (match Check.check design with
  | [] -> ()
  | e :: _ -> invalid_arg ("Interp.create: " ^ e));
  let t =
    { design
    ; inputs = Hashtbl.create 8
    ; regs = Hashtbl.create 8
    ; outputs = Hashtbl.create 8
    }
  in
  List.iter (fun (d : Ast.decl) -> Hashtbl.replace t.inputs d.dname 0) design.inputs;
  (* registers power up at zero: the interpreter is the reference model,
     and the synthesized circuits are driven through a reset before any
     comparison *)
  List.iter (fun (d : Ast.decl) -> Hashtbl.replace t.regs d.dname 0) design.regs;
  List.iter (fun (d : Ast.decl) -> Hashtbl.replace t.outputs d.dname 0) design.outputs;
  (* wires share the combinational table; the checker guarantees every
     read is preceded by an assignment in the same cycle *)
  List.iter (fun (d : Ast.decl) -> Hashtbl.replace t.outputs d.dname 0) design.wires;
  t

let width t name =
  match Check.find_decl t.design name with
  | Some d -> d.Ast.width
  | None -> raise Not_found

let set_input t name v =
  if not (Hashtbl.mem t.inputs name) then raise Not_found;
  Hashtbl.replace t.inputs name (mask (width t name) v)

(* Register reads during a step must see PRE-cycle values even after a
   pending register assignment (non-blocking semantics).  The pending
   table therefore shadows outputs immediately but register reads bypass
   it: we keep two tables. *)
let step t =
  let pending_out = Hashtbl.create 8 in
  let pending_reg = Hashtbl.create 8 in
  let is_reg n = List.exists (fun (d : Ast.decl) -> d.Ast.dname = n) t.design.regs in
  (* a wrapper environment: assignments recorded per class; reads of
     registers use pre-cycle values, reads of outputs see the pending
     value (combinational chaining) *)
  let lookup2 name =
    match Hashtbl.find_opt pending_out name with
    | Some v when not (is_reg name) -> v
    | _ -> (
      match Hashtbl.find_opt t.inputs name with
      | Some v -> v
      | None -> (
        match Hashtbl.find_opt t.regs name with
        | Some v -> v
        | None -> Hashtbl.find t.outputs name))
  in
  let rec eval2 e =
    match (e : Ast.expr) with
    | Ast.Const v -> v
    | Ast.Ref n -> lookup2 n
    | Ast.Bit (n, i) -> (lookup2 n lsr i) land 1
    | Ast.Unop (Ast.Not, e') ->
      let w = Check.expr_width t.design e' in
      mask w (lnot (eval2 e'))
    | Ast.Binop (op, a, b) ->
      let va = eval2 a in
      let vb = eval2 b in
      let w = Check.expr_width t.design (Ast.Binop (op, a, b)) in
      (match op with
      | Ast.Add -> mask w (va + vb)
      | Ast.Sub -> mask w (va - vb)
      | Ast.And -> va land vb
      | Ast.Or -> va lor vb
      | Ast.Xor -> va lxor vb
      | Ast.Eq -> if va = vb then 1 else 0
      | Ast.Ne -> if va <> vb then 1 else 0
      | Ast.Lt -> if va < vb then 1 else 0
      | Ast.Gt -> if va > vb then 1 else 0
      | Ast.Shl -> mask w (va lsl vb)
      | Ast.Shr -> va lsr vb)
  in
  let rec exec2 stmts = List.iter exec_stmt2 stmts
  and exec_stmt2 = function
    | Ast.Assign (n, e) ->
      let v = mask (width t n) (eval2 e) in
      if is_reg n then Hashtbl.replace pending_reg n v
      else Hashtbl.replace pending_out n v
    | Ast.If (c, th, el) -> if eval2 c <> 0 then exec2 th else exec2 el
    | Ast.Decode (e, cases, dflt) -> (
      match List.assoc_opt (eval2 e) cases with
      | Some ss -> exec2 ss
      | None -> exec2 dflt)
  in
  exec2 t.design.body;
  Hashtbl.iter (fun n v -> Hashtbl.replace t.outputs n v) pending_out;
  Hashtbl.iter (fun n v -> Hashtbl.replace t.regs n v) pending_reg

let output t name =
  if not (List.exists (fun (d : Ast.decl) -> d.Ast.dname = name) t.design.outputs)
  then raise Not_found;
  Hashtbl.find t.outputs name

let reg t name =
  if not (List.exists (fun (d : Ast.decl) -> d.Ast.dname = name) t.design.regs)
  then raise Not_found;
  Hashtbl.find t.regs name

let set_reg t name v =
  if not (List.exists (fun (d : Ast.decl) -> d.Ast.dname = name) t.design.regs)
  then raise Not_found;
  Hashtbl.replace t.regs name (mask (width t name) v)
