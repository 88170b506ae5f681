open Sc_geom
open Sc_tech
open Sc_layout

module L = Sc_rtl.Lexer
module Diag = Sc_pipeline.Diag

(* every error of the language, syntax or evaluation, is the lexer's,
   at a statement's (or a cell definition's) position *)
let fail at fmt = Format.kasprintf (fun s -> raise (L.Error (at, s))) fmt

let keywords =
  [ "cell"; "let"; "for"; "to"; "if"; "else"; "inst"; "at"; "orient"; "box"
  ; "wire"; "port"
  ]

(* --- AST --- *)

type expr =
  | Eint of int
  | Evar of string
  | Ebin of string * expr * expr
  | Eneg of expr
  | Ecall of string * expr list

type stmt =
  { kind : kind
  ; at : Diag.pos  (** of its first lexeme *)
  }

and kind =
  | Sbox of string * expr * expr * expr * expr
  | Swire of string * expr * (expr * expr) list
  | Sinst of expr * (expr * expr) option * string option
  | Sport of string * string * expr * expr * expr * expr
  | Slet of string * expr
  | Sfor of string * expr * expr * stmt list
  | Sif of expr * stmt list * stmt list

type celldef =
  { cname : string
  ; params : string list
  ; body : stmt list
  ; cpos : Diag.pos
  }

(* --- parser --- *)

(* [item]s in parentheses, separated by commas *)
let parenthesised item st =
  L.expect_sym st "(";
  if L.accept st (L.Sym ")") then []
  else
    let rec more acc =
      let acc = item st :: acc in
      if L.accept st (L.Sym ",") then more acc
      else begin
        L.expect_sym st ")";
        List.rev acc
      end
    in
    more []

(* operands of [next] joined by the operators [ops], folded to the left *)
let left next ops st =
  let rec loop a =
    match L.peek st with
    | L.Sym op when List.mem op ops ->
      L.advance st;
      loop (Ebin (op, a, next st))
    | _ -> a
  in
  loop (next st)

let rec parse_cmp st =
  let a = parse_add st in
  match L.peek st with
  | L.Sym (("==" | "!=" | "<" | ">" | "<=" | ">=") as op) ->
    L.advance st;
    Ebin (op, a, parse_add st)
  | _ -> a

and parse_add st = left parse_mul [ "+"; "-" ] st
and parse_mul st = left parse_atom [ "*"; "/"; "%" ] st

and parse_atom st =
  match L.peek st with
  | L.Int v ->
    L.advance st;
    Eint v
  | L.Sym "-" ->
    L.advance st;
    Eneg (parse_atom st)
  | L.Sym "(" ->
    L.advance st;
    let e = parse_cmp st in
    L.expect_sym st ")";
    e
  | L.Ident i when not (List.mem i keywords) ->
    L.advance st;
    if L.peek st = L.Sym "(" then Ecall (i, parenthesised parse_cmp st)
    else Evar i
  | t -> L.fail st "expected an expression, found %s" (L.describe t)

let parse_point st =
  L.expect_sym st "(";
  let x = parse_cmp st in
  L.expect_sym st ",";
  let y = parse_cmp st in
  L.expect_sym st ")";
  (x, y)

let rec parse_stmt st =
  let at = L.pos st in
  let kind =
    match L.peek st with
    | L.Ident "box" ->
      L.advance st;
      let layer = L.expect_ident st keywords in
      let x0 = parse_cmp st in
      let y0 = parse_cmp st in
      let x1 = parse_cmp st in
      let y1 = parse_cmp st in
      L.expect_sym st ";";
      Sbox (layer, x0, y0, x1, y1)
    | L.Ident "wire" ->
      L.advance st;
      let layer = L.expect_ident st keywords in
      let w = parse_cmp st in
      let pts = ref [] in
      while L.peek st = L.Sym "(" do
        pts := parse_point st :: !pts
      done;
      L.expect_sym st ";";
      Swire (layer, w, List.rev !pts)
    | L.Ident "inst" ->
      L.advance st;
      let e = parse_cmp st in
      let place =
        if L.accept st (L.Ident "at") then Some (parse_point st) else None
      in
      let orient =
        if L.accept st (L.Ident "orient") then Some (L.expect_ident st keywords)
        else None
      in
      L.expect_sym st ";";
      Sinst (e, place, orient)
    | L.Ident "port" ->
      L.advance st;
      let name = L.expect_ident st keywords in
      let layer = L.expect_ident st keywords in
      let x0 = parse_cmp st in
      let y0 = parse_cmp st in
      let x1 = parse_cmp st in
      let y1 = parse_cmp st in
      L.expect_sym st ";";
      Sport (name, layer, x0, y0, x1, y1)
    | L.Ident "let" ->
      L.advance st;
      let name = L.expect_ident st keywords in
      L.expect_sym st "=";
      let e = parse_cmp st in
      L.expect_sym st ";";
      Slet (name, e)
    | L.Ident "for" ->
      L.advance st;
      let v = L.expect_ident st keywords in
      L.expect_sym st "=";
      let lo = parse_cmp st in
      L.expect_kw st "to";
      let hi = parse_cmp st in
      let body = parse_block st in
      Sfor (v, lo, hi, body)
    | L.Ident "if" ->
      L.advance st;
      let c = parse_cmp st in
      let t = parse_block st in
      let e = if L.accept st (L.Ident "else") then parse_block st else [] in
      Sif (c, t, e)
    | t -> L.fail st "expected a statement, found %s" (L.describe t)
  in
  { kind; at }

and parse_block st =
  L.expect_sym st "{";
  let rec stmts acc =
    if L.accept st (L.Sym "}") then List.rev acc
    else stmts (parse_stmt st :: acc)
  in
  stmts []

let rec parse_program st =
  if L.peek st = L.Eof then []
  else
    let cpos = L.pos st in
    L.expect_kw st "cell";
    let name = L.expect_ident st keywords in
    let params = parenthesised (fun st -> L.expect_ident st keywords) st in
    let body = parse_block st in
    { cname = name; params; body; cpos } :: parse_program st

(* --- evaluator --- *)

type value = Vint of int | Vcell of Cell.t

let layer_of_name at = function
  | "diff" -> Layer.Diffusion
  | "poly" -> Layer.Poly
  | "contact" -> Layer.Contact
  | "metal" -> Layer.Metal
  | "implant" -> Layer.Implant
  | "buried" -> Layer.Buried
  | "glass" -> Layer.Glass
  | l -> fail at "unknown layer %S" l

let stdcell_builtins =
  [ ("inv", Sc_netlist.Gate.Inv)
  ; ("buf", Sc_netlist.Gate.Buf)
  ; ("nand2", Sc_netlist.Gate.Nand2)
  ; ("nand3", Sc_netlist.Gate.Nand3)
  ; ("nor2", Sc_netlist.Gate.Nor2)
  ; ("nor3", Sc_netlist.Gate.Nor3)
  ; ("and2", Sc_netlist.Gate.And2)
  ; ("or2", Sc_netlist.Gate.Or2)
  ; ("xor2", Sc_netlist.Gate.Xor2)
  ; ("xnor2", Sc_netlist.Gate.Xnor2)
  ; ("mux2", Sc_netlist.Gate.Mux2)
  ; ("dff", Sc_netlist.Gate.Dff)
  ; ("dffe", Sc_netlist.Gate.Dffe)
  ]

type env =
  { cells : (string, celldef) Hashtbl.t
  ; memo : (string, Cell.t) Hashtbl.t
  ; mutable steps : int
  ; mutable depth : int
  }

let max_steps = 2_000_000
let max_depth = 64

let tick env at =
  env.steps <- env.steps + 1;
  if env.steps > max_steps then fail at "evaluation budget exceeded"

(* [at]: the enclosing statement's position, which every error names *)
let rec eval_expr env vars at e : value =
  match e with
  | Eint v -> Vint v
  | Evar n -> (
    match List.assoc_opt n vars with
    | Some v -> v
    | None -> fail at "unbound variable %S" n)
  | Eneg e' -> (
    match eval_expr env vars at e' with
    | Vint v -> Vint (-v)
    | Vcell _ -> fail at "cannot negate a cell")
  | Ebin (op, a, b) -> (
    let va = eval_expr env vars at a and vb = eval_expr env vars at b in
    match (va, vb) with
    | Vint x, Vint y ->
      let r =
        match op with
        | "+" -> x + y
        | "-" -> x - y
        | "*" -> x * y
        | "/" ->
          if y = 0 then fail at "division by zero";
          x / y
        | "%" ->
          if y = 0 then fail at "division by zero";
          x mod y
        | "==" -> if x = y then 1 else 0
        | "!=" -> if x <> y then 1 else 0
        | "<" -> if x < y then 1 else 0
        | ">" -> if x > y then 1 else 0
        | "<=" -> if x <= y then 1 else 0
        | ">=" -> if x >= y then 1 else 0
        | _ -> fail at "unknown operator %S" op
      in
      Vint r
    | _ -> fail at "operator %S needs integers" op)
  | Ecall (name, args) -> eval_call env vars at name args

and eval_call env vars at name args =
  tick env at;
  let values = List.map (eval_expr env vars at) args in
  let int_arg i =
    match List.nth_opt values i with
    | Some (Vint v) -> v
    | _ -> fail at "%s: argument %d must be an integer" name (i + 1)
  in
  let cell_arg i =
    match List.nth_opt values i with
    | Some (Vcell c) -> c
    | _ -> fail at "%s: argument %d must be a cell" name (i + 1)
  in
  let arity k =
    if List.length values <> k then
      fail at "%s expects %d arguments, got %d" name k (List.length values)
  in
  match List.assoc_opt name stdcell_builtins with
  | Some kind ->
    arity 0;
    Vcell (Sc_stdcell.Library.layout_of kind)
  | None -> (
    match name with
    | "beside" ->
      arity 2;
      Vcell (Compose.beside ~name:"beside" (cell_arg 0) (cell_arg 1))
    | "above" ->
      arity 2;
      Vcell (Compose.above ~name:"above" (cell_arg 0) (cell_arg 1))
    | "rowof" ->
      arity 2;
      let n = int_arg 0 in
      if n < 1 then fail at "rowof: count must be positive";
      Vcell (Compose.row ~name:"rowof" (List.init n (fun _ -> cell_arg 1)))
    | "arrayof" ->
      arity 3;
      let nx = int_arg 0 and ny = int_arg 1 in
      if nx < 1 || ny < 1 then fail at "arrayof: counts must be positive";
      Vcell (Compose.array ~name:"arrayof" ~nx ~ny (cell_arg 2))
    | "width" ->
      arity 1;
      Vint (Cell.width (cell_arg 0))
    | "height" ->
      arity 1;
      Vint (Cell.height (cell_arg 0))
    | _ -> (
      match Hashtbl.find_opt env.cells name with
      | None -> fail at "unknown cell or function %S" name
      | Some def ->
        if List.length values <> List.length def.params then
          fail at "cell %s expects %d arguments, got %d" name
            (List.length def.params) (List.length values);
        (* share evaluated definitions: same cell + same integer actuals
           yield the same Cell.t, so instances share one CIF symbol *)
        let key =
          if List.for_all (function Vint _ -> true | _ -> false) values then
            Some
              (name ^ "("
              ^ String.concat ","
                  (List.map
                     (function Vint v -> string_of_int v | _ -> assert false)
                     values)
              ^ ")")
          else None
        in
        (match key with
        | Some k when Hashtbl.mem env.memo k -> Vcell (Hashtbl.find env.memo k)
        | _ ->
          env.depth <- env.depth + 1;
          if env.depth > max_depth then fail at "cell nesting too deep";
          let cell = eval_cell env def values in
          env.depth <- env.depth - 1;
          (match key with Some k -> Hashtbl.replace env.memo k cell | None -> ());
          Vcell cell)))

and eval_cell env def values =
  let vars = List.combine def.params values in
  let elements = ref [] in
  let instances = ref [] in
  let ports = ref [] in
  let counter = ref 0 in
  let int_of vars at e what =
    match eval_expr env vars at e with
    | Vint v -> v
    | Vcell _ -> fail at "%s must be an integer" what
  in
  let rec exec vars stmts = List.fold_left exec_stmt vars stmts
  and exec_stmt vars { kind; at } =
    (match kind with Slet _ | Sif _ -> () | _ -> tick env at);
    match kind with
    | Sbox (layer, x0, y0, x1, y1) ->
      let l = layer_of_name at layer in
      let r =
        Rect.make (int_of vars at x0 "box") (int_of vars at y0 "box")
          (int_of vars at x1 "box") (int_of vars at y1 "box")
      in
      elements := Cell.box l r :: !elements;
      vars
    | Swire (layer, w, pts) ->
      let l = layer_of_name at layer in
      let width = int_of vars at w "wire width" in
      if width <= 0 || width mod 2 <> 0 then
        fail at "wire width must be positive and even";
      let points =
        List.map
          (fun (x, y) ->
            Point.make
              (int_of vars at x "wire point")
              (int_of vars at y "wire point"))
          pts
      in
      if List.length points < 2 then fail at "wire needs at least two points";
      let path = Path.make ~width points in
      if not (Path.is_manhattan path) then fail at "wire must be Manhattan";
      elements := Cell.Wire (l, path) :: !elements;
      vars
    | Sinst (e, place, orient) ->
      let cell =
        match eval_expr env vars at e with
        | Vcell c -> c
        | Vint _ -> fail at "inst needs a cell"
      in
      let shift =
        match place with
        | Some (x, y) ->
          Point.make (int_of vars at x "inst at") (int_of vars at y "inst at")
        | None -> Point.origin
      in
      let o =
        match orient with
        | None -> Transform.R0
        | Some s -> (
          match Transform.orient_of_string s with
          | Some o -> o
          | None -> fail at "unknown orientation %S" s)
      in
      incr counter;
      instances :=
        Cell.instantiate
          ~name:(Printf.sprintf "i%d" !counter)
          ~trans:(Transform.make ~orient:o shift)
          cell
        :: !instances;
      vars
    | Sport (pname, layer, x0, y0, x1, y1) ->
      let l = layer_of_name at layer in
      let r =
        Rect.make (int_of vars at x0 "port") (int_of vars at y0 "port")
          (int_of vars at x1 "port") (int_of vars at y1 "port")
      in
      if List.exists (fun (p : Cell.port) -> p.pname = pname) !ports then
        fail at "duplicate port %S" pname;
      ports := Cell.port pname l r :: !ports;
      vars
    | Slet (n, e) -> (n, eval_expr env vars at e) :: vars
    | Sfor (v, lo, hi, body) ->
      let lo = int_of vars at lo "for bound"
      and hi = int_of vars at hi "for bound" in
      for i = lo to hi do
        ignore (exec ((v, Vint i) :: vars) body)
      done;
      vars
    | Sif (c, t, e) ->
      let cond =
        match eval_expr env vars at c with
        | Vint v -> v <> 0
        | Vcell _ -> fail at "if condition must be an integer"
      in
      ignore (exec vars (if cond then t else e));
      vars
  in
  ignore (exec vars def.body);
  let name =
    match values with
    | [] -> def.cname
    | _ ->
      def.cname ^ "_"
      ^ String.concat "_"
          (List.map
             (function Vint v -> string_of_int v | Vcell c -> c.Cell.name)
             values)
  in
  Cell.make ~name ~ports:(List.rev !ports) ~instances:(List.rev !instances)
    (List.rev !elements)

let stage = "elaborate"

(* the program's cells by name, after every syntax and definition error *)
let define src =
  let st = L.create src in
  let defs = parse_program st in
  if defs = [] then fail (L.pos st) "no cells defined";
  let env =
    { cells = Hashtbl.create 16; memo = Hashtbl.create 16; steps = 0; depth = 0 }
  in
  List.iter
    (fun d ->
      if Hashtbl.mem env.cells d.cname then
        fail d.cpos "cell %S defined twice" d.cname;
      if List.mem_assoc d.cname stdcell_builtins then
        fail d.cpos "cell %S shadows a builtin" d.cname;
      Hashtbl.replace env.cells d.cname d)
    defs;
  (env, defs)

(* the cell [entry] names (default: the last defined), refused unless
   it takes as many parameters as [args] holds *)
let entry_cell (env, defs) entry args =
  let d =
    match entry with
    | Some name -> (
      match Hashtbl.find_opt env.cells name with
      | Some d -> d
      | None -> Diag.failf ~stage "entry cell %S not found" name)
    | None -> List.nth defs (List.length defs - 1)
  in
  if List.length args <> List.length d.params then
    fail d.cpos "entry cell %s expects %d arguments, got %d" d.cname
      (List.length d.params) (List.length args);
  d

let elaborate f =
  match f () with
  | v -> Ok v
  | exception L.Error (loc, msg) -> Error (Diag.v ~loc ~stage msg)
  | exception Diag.Error d -> Error d

let compile ?entry ?(args = []) src =
  elaborate (fun () ->
      let ((env, _) as program) = define src in
      eval_cell env (entry_cell program entry args)
        (List.map (fun v -> Vint v) args))

let entry_error ?entry ?(args = []) src =
  match elaborate (fun () -> define src) with
  | Error _ -> None
  | Ok program -> (
    match elaborate (fun () -> entry_cell program entry args) with
    | Ok _ -> None
    | Error d -> Some d)
