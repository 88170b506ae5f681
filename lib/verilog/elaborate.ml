module R = Sc_rtl.Ast
module Diag = Sc_pipeline.Diag

let fail = Lexer.fail

let max_width = 30

let rec min_const_width v = if v <= 1 then 1 else 1 + min_const_width (v / 2)

(* who drives a signal; at most one per wire/reg *)
type driver =
  | Dassign of Diag.pos
  | Dalways of int * Diag.pos

type info =
  { kind : Ast.kind
  ; dir : Ast.dir option
  ; width : int
  ; dpos : Diag.pos
  ; sc_name : string
      (* name inside the ISP design: outputs get a [$]-prefixed carrier
         because ISP outputs are write-only in expressions *)
  ; mutable driver : driver option
  }

type env =
  { table : (string, info) Hashtbl.t
  ; clock : string option
  ; mutable helpers : R.decl list (* reversed *)
  ; mutable counter : int
  ; mutable prelude : R.stmt list (* reversed; flushed per comb node *)
  }

(* a lowered expression: the ISP term, the width Verilog assigns the
   value ([vw]), and the width sc_rtl's Check.expr_width will compute
   for the term ([scw]).  Interp masks Not/Add/Sub/Shl results at
   [scw], so whenever an operation is width-sensitive and [scw < vw]
   the operand is rerouted through a helper wire of width [vw]. *)
type lv =
  { e : R.expr
  ; vw : int
  ; scw : int
  }

(* one schedulable unit of combinational logic: a continuous assign
   (helper prelude + the assignment) or an always block's prelude *)
type node =
  { nstmts : R.stmt list
  ; defines : string list
  ; npos : Diag.pos
  ; nlabel : string
  }

let fresh env w =
  let n = "$" ^ string_of_int env.counter in
  env.counter <- env.counter + 1;
  env.helpers <- { R.dname = n; width = w } :: env.helpers;
  n

let hoist env l =
  let n = fresh env l.vw in
  env.prelude <- R.Assign (n, l.e) :: env.prelude;
  { e = R.Ref n; vw = l.vw; scw = l.vw }

let coerce env l = if l.scw >= l.vw then l else hoist env l

let resolve env name p =
  (match env.clock with
  | Some c when c = name ->
    fail p "the clock '%s' can only appear in sensitivity lists" name
  | _ -> ());
  match Hashtbl.find_opt env.table name with
  | None -> fail p "undeclared identifier '%s'" name
  | Some ({ kind = Ast.Wire; dir = None; driver = None; _ } as _i) ->
    fail p "wire '%s' is read but never assigned" name
  | Some i -> i

let rec lower env e : lv =
  match e with
  | Ast.Number { value; width; _ } ->
    let vw =
      match width with Some w -> w | None -> min_const_width value
    in
    { e = R.Const value; vw; scw = min_const_width value }
  | Ast.Id (n, p) ->
    let i = resolve env n p in
    { e = R.Ref i.sc_name; vw = i.width; scw = i.width }
  | Ast.Index (n, idx, p) ->
    let i = resolve env n p in
    if idx < 0 || idx >= i.width then
      fail p "bit select %s[%d] out of range (width %d)" n idx i.width;
    { e = R.Bit (i.sc_name, idx); vw = 1; scw = 1 }
  | Ast.Slice (n, h, l, p) ->
    let i = resolve env n p in
    if l > h then fail p "empty part select %s[%d:%d]" n h l;
    if l < 0 || h >= i.width then
      fail p "part select %s[%d:%d] out of range (width %d)" n h l i.width;
    let w = h - l + 1 in
    if w = i.width then { e = R.Ref i.sc_name; vw = w; scw = w }
    else begin
      let mask = (1 lsl w) - 1 in
      let base =
        if l = 0 then R.Ref i.sc_name
        else R.Binop (R.Shr, R.Ref i.sc_name, R.Const l)
      in
      { e = R.Binop (R.And, base, R.Const mask); vw = w; scw = w }
    end
  | Ast.Unop (Ast.Bnot, e', _) ->
    let a = coerce env (lower env e') in
    { e = R.Unop (R.Not, a.e); vw = a.vw; scw = a.vw }
  | Ast.Cond { cond; t; f; cpos = _ } ->
    let c = lower env cond in
    let lt = lower env t in
    let lf = lower env f in
    let vw = max lt.vw lf.vw in
    let n = fresh env vw in
    env.prelude <-
      R.If (c.e, [ R.Assign (n, lt.e) ], [ R.Assign (n, lf.e) ])
      :: env.prelude;
    { e = R.Ref n; vw; scw = vw }
  | Ast.Concat (parts, p) ->
    let ls =
      List.map
        (fun part ->
          (match part with
          | Ast.Number { width = None; value; npos } ->
            fail npos
              "unsized literal %d in concatenation (give it a size, e.g. \
               %d'd%d)"
              value (min_const_width value) value
          | _ -> ());
          lower env part)
        parts
    in
    let total = List.fold_left (fun a l -> a + l.vw) 0 ls in
    if total > max_width then
      fail p "concatenation is %d bits wide (max %d)" total max_width;
    (* rightmost part sits at bit 0.  Each shifted part goes through a
       full-width helper wire first, because sc_rtl's Shl masks at its
       left operand's width and would truncate the shifted value. *)
    let _, acc, scw =
      List.fold_left
        (fun (offset, acc, scw) l ->
          let contrib, cw =
            if offset = 0 then (l.e, l.scw)
            else begin
              let h = fresh env total in
              env.prelude <- R.Assign (h, l.e) :: env.prelude;
              (R.Binop (R.Shl, R.Ref h, R.Const offset), total)
            end
          in
          let acc =
            match acc with
            | None -> Some contrib
            | Some a -> Some (R.Binop (R.Or, contrib, a))
          in
          (offset + l.vw, acc, max scw cw))
        (0, None, 1) (List.rev ls)
    in
    { e = Option.get acc; vw = total; scw }
  | Ast.Binop (op, a, b, p) -> (
    match op with
    | Ast.Add | Ast.Sub ->
      let la = lower env a in
      let lb = lower env b in
      let vw = max la.vw lb.vw in
      (* Interp masks the result at the wider sc width; widen one
         operand only when that would undershoot the Verilog width *)
      let la, lb =
        if max la.scw lb.scw >= vw then (la, lb)
        else if la.vw >= lb.vw then (hoist env la, lb)
        else (la, hoist env lb)
      in
      let rop = match op with Ast.Add -> R.Add | _ -> R.Sub in
      { e = R.Binop (rop, la.e, lb.e); vw; scw = max la.scw lb.scw }
    | Ast.And | Ast.Or | Ast.Xor ->
      let la = lower env a in
      let lb = lower env b in
      let rop =
        match op with
        | Ast.And -> R.And
        | Ast.Or -> R.Or
        | _ -> R.Xor
      in
      let scw =
        (* mirror Check.expr_width's constant-mask narrowing *)
        match (rop, la.e, lb.e) with
        | R.And, _, R.Const c -> min la.scw (min_const_width c)
        | R.And, R.Const c, _ -> min lb.scw (min_const_width c)
        | _ -> max la.scw lb.scw
      in
      { e = R.Binop (rop, la.e, lb.e); vw = max la.vw lb.vw; scw }
    | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Gt ->
      let la = lower env a in
      let lb = lower env b in
      let rop =
        match op with
        | Ast.Eq -> R.Eq
        | Ast.Ne -> R.Ne
        | Ast.Lt -> R.Lt
        | _ -> R.Gt
      in
      { e = R.Binop (rop, la.e, lb.e); vw = 1; scw = 1 }
    | Ast.Le ->
      let la = lower env a in
      let lb = lower env b in
      { e = R.Unop (R.Not, R.Binop (R.Gt, la.e, lb.e)); vw = 1; scw = 1 }
    | Ast.Ge ->
      let la = lower env a in
      let lb = lower env b in
      { e = R.Unop (R.Not, R.Binop (R.Lt, la.e, lb.e)); vw = 1; scw = 1 }
    | Ast.Shl | Ast.Shr -> (
      let k =
        match b with
        | Ast.Number { value; _ } -> value
        | other -> fail (Ast.expr_pos other) "shift amount must be a constant"
      in
      if k > max_width then
        fail p "shift amount %d out of range 0..%d" k max_width;
      match op with
      | Ast.Shl ->
        let la = coerce env (lower env a) in
        { e = R.Binop (R.Shl, la.e, R.Const k); vw = la.vw; scw = la.vw }
      | _ ->
        let la = lower env a in
        { e = R.Binop (R.Shr, la.e, R.Const k)
        ; vw = la.vw
        ; scw = max 1 (la.scw - k)
        }))

let rec lower_stmt env = function
  | Ast.Nonblocking { target; rhs; spos } ->
    let i = resolve env target spos in
    let r = lower env rhs in
    [ R.Assign (i.sc_name, r.e) ]
  | Ast.If { cond; then_; else_; _ } ->
    let c = lower env cond in
    let t = lower_stmts env then_ in
    let e = lower_stmts env else_ in
    [ R.If (c.e, t, e) ]
  | Ast.Case { scrutinee; arms; default; spos = _ } ->
    let s = lower env scrutinee in
    let s = if s.scw = s.vw then s else hoist env s in
    let arms' =
      List.map
        (fun (label, body) ->
          let v =
            match label with
            | Ast.Number { value; _ } -> value
            | other ->
              fail (Ast.expr_pos other) "case labels must be constant numbers"
          in
          if v >= 1 lsl s.vw then
            fail (Ast.expr_pos label)
              "case label %d does not fit the scrutinee's %d bits" v s.vw;
          (v, lower_stmts env body))
        arms
    in
    [ R.Decode (s.e, arms', lower_stmts env default) ]

and lower_stmts env stmts = List.concat_map (lower_stmt env) stmts

(* free references of lowered statements, for scheduling *)
let rec expr_refs acc = function
  | R.Const _ -> acc
  | R.Ref n | R.Bit (n, _) -> n :: acc
  | R.Unop (_, e) -> expr_refs acc e
  | R.Binop (_, a, b) -> expr_refs (expr_refs acc a) b

let rec stmt_refs acc = function
  | R.Assign (_, e) -> expr_refs acc e
  | R.If (c, t, e) ->
    List.fold_left stmt_refs (List.fold_left stmt_refs (expr_refs acc c) t) e
  | R.Decode (e, cases, d) ->
    let acc = expr_refs acc e in
    let acc =
      List.fold_left (fun acc (_, ss) -> List.fold_left stmt_refs acc ss) acc
        cases
    in
    List.fold_left stmt_refs acc d

let elaborate_exn (m : Ast.module_) : R.design =
  (* declaration table *)
  let table = Hashtbl.create 16 in
  let decl_order = ref [] in
  List.iter
    (function
      | Ast.Decl d ->
        if Hashtbl.mem table d.Ast.name then
          fail d.Ast.dpos "duplicate declaration of '%s'" d.Ast.name;
        let width =
          match d.Ast.range with None -> 1 | Some { Ast.msb; _ } -> msb + 1
        in
        if width > max_width then
          fail d.Ast.dpos "%s: width %d out of range 1..%d" d.Ast.name width
            max_width;
        let sc_name =
          match d.Ast.dir with
          | Some Ast.Output -> "$" ^ d.Ast.name
          | _ -> d.Ast.name
        in
        Hashtbl.replace table d.Ast.name
          { kind = d.Ast.kind
          ; dir = d.Ast.dir
          ; width
          ; dpos = d.Ast.dpos
          ; sc_name
          ; driver = None
          };
        decl_order := d.Ast.name :: !decl_order
      | _ -> ())
    m.items;
  let decl_order = List.rev !decl_order in
  let find name = Hashtbl.find_opt table name in
  (* ports: every name declared with a direction, every direction ported *)
  let seen_ports = Hashtbl.create 8 in
  List.iter
    (fun p ->
      if Hashtbl.mem seen_ports p then fail m.mpos "port '%s' listed twice" p;
      Hashtbl.replace seen_ports p ();
      match find p with
      | None -> fail m.mpos "port '%s' has no declaration" p
      | Some { dir = None; dpos; _ } ->
        fail dpos "port '%s' needs a direction ('input' or 'output')" p
      | Some _ -> ())
    m.ports;
  List.iter
    (fun n ->
      let i = Hashtbl.find table n in
      match i.dir with
      | Some d when not (Hashtbl.mem seen_ports n) ->
        fail i.dpos "'%s' is declared %s but is not in the port list" n
          (match d with Ast.Input -> "input" | Ast.Output -> "output")
      | _ -> ())
    decl_order;
  (* clock and async-reset identification *)
  let clock = ref None in
  List.iter
    (function
      | Ast.Always { edges; body; apos } -> (
        match edges with
        | [] -> assert false
        | (c, cp) :: rest -> (
          (match !clock with
          | None -> (
            match find c with
            | Some { dir = Some Ast.Input; width = 1; _ } -> clock := Some c
            | Some _ -> fail cp "clock '%s' must be a 1-bit input" c
            | None -> fail cp "undeclared identifier '%s'" c)
          | Some c0 when c0 <> c ->
            fail cp "all always blocks must share one clock (got '%s' and '%s')"
              c0 c
          | Some _ -> ());
          match rest with
          | [] -> ()
          | [ (r, rp) ] -> (
            (match find r with
            | Some { dir = Some Ast.Input; width = 1; _ } -> ()
            | Some _ -> fail rp "async reset '%s' must be a 1-bit input" r
            | None -> fail rp "undeclared identifier '%s'" r);
            (* the classic idiom, realized with synchronous priority *)
            match body with
            | [ Ast.If { cond = Ast.Id (c', _); _ } ] when c' = r -> ()
            | _ ->
              fail apos
                "an always block with an async reset must be exactly 'if \
                 (%s) ... else ...'"
                r)
          | _ :: (_, p3) :: _ ->
            fail p3
              "unsupported sensitivity list (at most a clock and an async \
               reset)"))
      | _ -> ())
    m.items;
  (* driver classification: one driver per wire/reg, right kind each *)
  let block = ref (-1) in
  List.iter
    (function
      | Ast.Decl _ -> ()
      | Ast.Assign { lhs; apos; _ } -> (
        match find lhs with
        | None -> fail apos "undeclared identifier '%s'" lhs
        | Some i -> (
          (match i.dir with
          | Some Ast.Input -> fail apos "cannot drive input '%s'" lhs
          | _ -> ());
          if i.kind = Ast.Reg then
            fail apos
              "'%s' is a reg; drive it from an always block, or declare it \
               wire"
              lhs;
          match i.driver with
          | Some (Dassign p0 | Dalways (_, p0)) ->
            fail apos "'%s' has multiple drivers (also driven at %s)" lhs
              (Diag.pos_to_string p0)
          | None -> i.driver <- Some (Dassign apos)))
      | Ast.Always { body; _ } ->
        incr block;
        let b = !block in
        let rec targets = function
          | Ast.Nonblocking { target; spos; _ } -> (
            match find target with
            | None -> fail spos "undeclared identifier '%s'" target
            | Some i -> (
              (match i.dir with
              | Some Ast.Input -> fail spos "cannot drive input '%s'" target
              | _ -> ());
              if i.kind = Ast.Wire then
                fail spos
                  "'%s' is a wire; declare it reg to drive it from an \
                   always block"
                  target;
              match i.driver with
              | Some (Dalways (b0, _)) when b0 = b -> ()
              | Some (Dassign p0) ->
                fail spos
                  "'%s' is driven by both an assign (at %s) and an always \
                   block"
                  target (Diag.pos_to_string p0)
              | Some (Dalways (_, p0)) ->
                fail spos
                  "'%s' is driven from more than one always block (also at \
                   %s)"
                  target (Diag.pos_to_string p0)
              | None -> i.driver <- Some (Dalways (b, spos))))
          | Ast.If { then_; else_; _ } ->
            List.iter targets then_;
            List.iter targets else_
          | Ast.Case { arms; default; _ } ->
            List.iter (fun (_, ss) -> List.iter targets ss) arms;
            List.iter targets default
        in
        List.iter targets body)
    m.items;
  List.iter
    (fun n ->
      let i = Hashtbl.find table n in
      if i.dir = Some Ast.Output && i.driver = None then
        fail i.dpos "output '%s' is never driven" n)
    decl_order;
  (* lowering *)
  let env =
    { table; clock = !clock; helpers = []; counter = 0; prelude = [] }
  in
  let nodes_acc = ref [] in
  let seq_acc = ref [] in
  let helper_names c0 c1 =
    List.init (c1 - c0) (fun k -> "$" ^ string_of_int (c0 + k))
  in
  List.iter
    (function
      | Ast.Decl _ -> ()
      | Ast.Assign { lhs; rhs; apos } ->
        let i = Hashtbl.find table lhs in
        env.prelude <- [];
        let c0 = env.counter in
        let r = lower env rhs in
        nodes_acc :=
          { nstmts = List.rev env.prelude @ [ R.Assign (i.sc_name, r.e) ]
          ; defines = i.sc_name :: helper_names c0 env.counter
          ; npos = apos
          ; nlabel = lhs
          }
          :: !nodes_acc
      | Ast.Always { body; apos; _ } ->
        env.prelude <- [];
        let c0 = env.counter in
        let ss = lower_stmts env body in
        if env.prelude <> [] then
          nodes_acc :=
            { nstmts = List.rev env.prelude
            ; defines = helper_names c0 env.counter
            ; npos = apos
            ; nlabel = "always"
            }
            :: !nodes_acc;
        seq_acc := ss :: !seq_acc)
    m.items;
  let nodes = Array.of_list (List.rev !nodes_acc) in
  let seq = List.concat (List.rev !seq_acc) in
  (* design signal lists *)
  let clock = !clock in
  let inputs =
    List.filter_map
      (fun p ->
        let i = Hashtbl.find table p in
        match i.dir with
        | Some Ast.Input when Some p <> clock ->
          Some { R.dname = p; width = i.width }
        | _ -> None)
      m.ports
  in
  let outputs =
    List.filter_map
      (fun p ->
        let i = Hashtbl.find table p in
        match i.dir with
        | Some Ast.Output -> Some { R.dname = p; width = i.width }
        | _ -> None)
      m.ports
  in
  if outputs = [] then fail m.mpos "module '%s' has no outputs" m.mname;
  let regs =
    List.filter_map
      (fun n ->
        let i = Hashtbl.find table n in
        if i.kind = Ast.Reg then Some { R.dname = i.sc_name; width = i.width }
        else None)
      decl_order
  in
  let wires =
    List.filter_map
      (fun n ->
        let i = Hashtbl.find table n in
        if i.kind = Ast.Wire && i.dir <> Some Ast.Input then
          Some { R.dname = i.sc_name; width = i.width }
        else None)
      decl_order
    @ List.rev env.helpers
  in
  (* schedule combinational nodes into evaluation order *)
  let wire_tbl = Hashtbl.create 16 in
  List.iter (fun (d : R.decl) -> Hashtbl.replace wire_tbl d.dname ()) wires;
  let node_reads =
    Array.map
      (fun nd ->
        List.fold_left stmt_refs [] nd.nstmts
        |> List.filter (fun n ->
               Hashtbl.mem wire_tbl n && not (List.mem n nd.defines))
        |> List.sort_uniq compare)
      nodes
  in
  let defined = Hashtbl.create 16 in
  let rec topo remaining acc =
    if remaining = [] then List.rev acc
    else begin
      let ready, blocked =
        List.partition
          (fun i -> List.for_all (Hashtbl.mem defined) node_reads.(i))
          remaining
      in
      if ready = [] then begin
        let i = List.hd blocked in
        fail nodes.(i).npos "combinational cycle through '%s'"
          nodes.(i).nlabel
      end;
      List.iter
        (fun i ->
          List.iter (fun d -> Hashtbl.replace defined d ()) nodes.(i).defines)
        ready;
      topo blocked (List.rev_append ready acc)
    end
  in
  let order = topo (List.init (Array.length nodes) Fun.id) [] in
  let comb = List.concat_map (fun i -> nodes.(i).nstmts) order in
  let copies =
    List.filter_map
      (fun p ->
        let i = Hashtbl.find table p in
        match i.dir with
        | Some Ast.Output -> Some (R.Assign (p, R.Ref i.sc_name))
        | _ -> None)
      m.ports
  in
  let design =
    { R.name = m.mname
    ; inputs
    ; outputs
    ; regs
    ; wires
    ; body = comb @ copies @ seq
    }
  in
  (* the lowering is constructed to be Check-clean; a residual failure
     is an elaborator bug, reported as a diagnostic rather than raised *)
  (match Sc_rtl.Check.check design with
  | [] -> ()
  | e :: _ -> fail m.mpos "internal elaboration error: %s" e);
  design

let design src =
  Result.bind (Parse.parse src) (fun m ->
      match elaborate_exn m with
      | d -> Ok d
      | exception Diag.Error d -> Error d)

let design_of_source src = Result.map_error Diag.located (design src)
