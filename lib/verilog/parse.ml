let fail = Lexer.fail

(* words with reserved meaning in full Verilog; the subset's parser
   refuses them as identifiers so diagnostics name the construct *)
let keywords =
  [ "module"; "endmodule"; "input"; "output"; "inout"; "wire"; "reg"
  ; "assign"; "always"; "posedge"; "negedge"; "or"; "begin"; "end"; "if"
  ; "else"; "case"; "casez"; "casex"; "endcase"; "default"; "initial"
  ; "parameter"; "localparam"; "integer"; "real"; "genvar"; "generate"
  ; "endgenerate"; "function"; "endfunction"; "task"; "endtask"; "for"
  ; "while"; "repeat"; "forever"; "wait"; "fork"; "join"; "signed"; "wand"
  ; "wor"; "tri"; "supply0"; "supply1"; "specify"; "endspecify"; "defparam"
  ]

let is_keyword w = List.mem w keywords

type state =
  { toks : Lexer.lexeme array
  ; mutable i : int
  }

let peek st = st.toks.(st.i).Lexer.tok
let pos st = st.toks.(st.i).Lexer.pos
let advance st = if st.i < Array.length st.toks - 1 then st.i <- st.i + 1

let unexpected st what =
  fail (pos st) "expected %s, found %s" what (Lexer.token_to_string (peek st))

let expect_sym st s =
  match peek st with
  | Lexer.Sym s' when s = s' -> advance st
  | _ -> unexpected st (Printf.sprintf "'%s'" s)

let expect_kw st kw =
  match peek st with
  | Lexer.Id i when i = kw -> advance st
  | _ -> unexpected st (Printf.sprintf "keyword '%s'" kw)

let expect_ident st =
  match peek st with
  | Lexer.Id i when not (is_keyword i) ->
    if String.length i > 0 && i.[0] = '$' then
      fail (pos st) "unsupported system task '%s'" i;
    advance st;
    i
  | Lexer.Id i -> fail (pos st) "'%s' cannot be used as an identifier here" i
  | _ -> unexpected st "an identifier"

let expect_number st =
  match peek st with
  | Lexer.Number { value; _ } ->
    advance st;
    value
  | _ -> unexpected st "a number"

(* --- expressions --- *)

(* precedence climb, loosest first: ?:  |  ^  &  ==/!=  rel  shift  add
   unary  primary.  Unsupported operators get targeted diagnostics at
   the level where full Verilog would bind them. *)
let rec parse_cond st =
  let c = parse_or st in
  match peek st with
  | Lexer.Sym "?" ->
    let cpos = pos st in
    advance st;
    let t = parse_cond st in
    expect_sym st ":";
    let f = parse_cond st in
    Ast.Cond { cond = c; t; f; cpos }
  | _ -> c

and parse_or st =
  let a = parse_xor st in
  match peek st with
  | Lexer.Sym "|" ->
    let p = pos st in
    advance st;
    Ast.Binop (Ast.Or, a, parse_or st, p)
  | Lexer.Sym ("||" | "&&") ->
    fail (pos st)
      "unsupported operator '%s' (use the bitwise '%s' on 1-bit values)"
      (match peek st with Lexer.Sym s -> s | _ -> assert false)
      (match peek st with Lexer.Sym "||" -> "|" | _ -> "&")
  | _ -> a

and parse_xor st =
  let a = parse_and st in
  match peek st with
  | Lexer.Sym "^" ->
    let p = pos st in
    advance st;
    Ast.Binop (Ast.Xor, a, parse_xor st, p)
  | _ -> a

and parse_and st =
  let a = parse_eq st in
  match peek st with
  | Lexer.Sym "&" ->
    let p = pos st in
    advance st;
    Ast.Binop (Ast.And, a, parse_and st, p)
  | _ -> a

and parse_eq st =
  let a = parse_rel st in
  match peek st with
  | Lexer.Sym "==" ->
    let p = pos st in
    advance st;
    Ast.Binop (Ast.Eq, a, parse_rel st, p)
  | Lexer.Sym "!=" ->
    let p = pos st in
    advance st;
    Ast.Binop (Ast.Ne, a, parse_rel st, p)
  | _ -> a

and parse_rel st =
  let a = parse_shift st in
  match peek st with
  | Lexer.Sym "<" ->
    let p = pos st in
    advance st;
    Ast.Binop (Ast.Lt, a, parse_shift st, p)
  | Lexer.Sym "<=" ->
    let p = pos st in
    advance st;
    Ast.Binop (Ast.Le, a, parse_shift st, p)
  | Lexer.Sym ">" ->
    let p = pos st in
    advance st;
    Ast.Binop (Ast.Gt, a, parse_shift st, p)
  | Lexer.Sym ">=" ->
    let p = pos st in
    advance st;
    Ast.Binop (Ast.Ge, a, parse_shift st, p)
  | _ -> a

and parse_shift st =
  let a = parse_add st in
  match peek st with
  | Lexer.Sym "<<" ->
    let p = pos st in
    advance st;
    Ast.Binop (Ast.Shl, a, parse_add st, p)
  | Lexer.Sym ">>" ->
    let p = pos st in
    advance st;
    Ast.Binop (Ast.Shr, a, parse_add st, p)
  | _ -> a

and parse_add st =
  let rec loop a =
    match peek st with
    | Lexer.Sym "+" ->
      let p = pos st in
      advance st;
      loop (Ast.Binop (Ast.Add, a, parse_unary st, p))
    | Lexer.Sym "-" ->
      let p = pos st in
      advance st;
      loop (Ast.Binop (Ast.Sub, a, parse_unary st, p))
    | Lexer.Sym (("*" | "/" | "%") as op) ->
      fail (pos st)
        "unsupported operator '%s' (multiplication, division and modulo \
         are not in the subset)"
        op
    | _ -> a
  in
  loop (parse_unary st)

and parse_unary st =
  match peek st with
  | Lexer.Sym "~" ->
    let p = pos st in
    advance st;
    Ast.Unop (Ast.Bnot, parse_unary st, p)
  | Lexer.Sym "-" ->
    (* unary minus: two's-complement negate, i.e. 0 - e at the operand's
       width *)
    let p = pos st in
    advance st;
    Ast.Binop (Ast.Sub, Ast.Number { value = 0; width = None; npos = p },
               parse_unary st, p)
  | Lexer.Sym "!" ->
    fail (pos st) "unsupported operator '!' (compare with '== 0' instead)"
  | Lexer.Sym ("&" | "|" | "^") ->
    fail (pos st)
      "unsupported reduction operator '%s' (spell the bits out, e.g. \
       x[1] %s x[0])"
      (match peek st with Lexer.Sym s -> s | _ -> assert false)
      (match peek st with Lexer.Sym s -> s | _ -> assert false)
  | _ -> parse_primary st

and parse_primary st =
  let p = pos st in
  match peek st with
  | Lexer.Sym "#" ->
    fail p "unsupported construct '#' (delays are not synthesizable)"
  | Lexer.Number { value; width } ->
    advance st;
    Ast.Number { value; width; npos = p }
  | Lexer.Sym "(" ->
    advance st;
    let e = parse_cond st in
    expect_sym st ")";
    e
  | Lexer.Sym "{" ->
    advance st;
    let first = parse_cond st in
    (match (first, peek st) with
    | Ast.Number _, Lexer.Sym "{" ->
      fail p "unsupported construct: replication {N{...}}"
    | _ -> ());
    let parts = ref [ first ] in
    while peek st = Lexer.Sym "," do
      advance st;
      parts := parse_cond st :: !parts
    done;
    expect_sym st "}";
    Ast.Concat (List.rev !parts, p)
  | Lexer.Id i when not (is_keyword i) ->
    if String.length i > 0 && i.[0] = '$' then
      fail p "unsupported system task '%s'" i;
    advance st;
    (match peek st with
    | Lexer.Sym "[" ->
      advance st;
      let idx_pos = pos st in
      (match peek st with
      | Lexer.Number { value = hi; _ } -> (
        advance st;
        match peek st with
        | Lexer.Sym ":" ->
          advance st;
          let lo = expect_number st in
          expect_sym st "]";
          Ast.Slice (i, hi, lo, p)
        | _ ->
          expect_sym st "]";
          Ast.Index (i, hi, p))
      | _ ->
        fail idx_pos
          "unsupported non-constant bit select (indices must be numbers)")
    | _ -> Ast.Id (i, p))
  | _ -> unexpected st "an expression"

(* --- statements --- *)

let reject_stmt_keyword st = function
  | "for" | "while" | "repeat" | "forever" ->
    fail (pos st)
      "unsupported construct '%s' (loops are not synthesizable in this \
       subset)"
      (match peek st with Lexer.Id i -> i | _ -> assert false)
  | "casez" | "casex" ->
    fail (pos st)
      "unsupported construct '%s' (only 'case' with constant labels)"
      (match peek st with Lexer.Id i -> i | _ -> assert false)
  | "wait" | "fork" ->
    fail (pos st) "unsupported construct '%s' (simulation-only control)"
      (match peek st with Lexer.Id i -> i | _ -> assert false)
  | _ -> ()

let rec parse_stmt st =
  let p = pos st in
  match peek st with
  | Lexer.Sym "#" ->
    fail p "unsupported construct '#' (delays are not synthesizable)"
  | Lexer.Id "begin" ->
    advance st;
    let body = ref [] in
    while peek st <> Lexer.Id "end" && peek st <> Lexer.Eof do
      body := List.rev_append (parse_stmt st) !body
    done;
    expect_kw st "end";
    List.rev !body
  | Lexer.Id "if" ->
    advance st;
    expect_sym st "(";
    let cond = parse_cond st in
    expect_sym st ")";
    let then_ = parse_stmt st in
    let else_ =
      match peek st with
      | Lexer.Id "else" ->
        advance st;
        parse_stmt st
      | _ -> []
    in
    [ Ast.If { cond; then_; else_; spos = p } ]
  | Lexer.Id "case" ->
    advance st;
    expect_sym st "(";
    let scrutinee = parse_cond st in
    expect_sym st ")";
    let arms = ref [] in
    let default = ref [] in
    let rec arms_loop () =
      match peek st with
      | Lexer.Id "endcase" -> ()
      | Lexer.Id "default" ->
        advance st;
        (match peek st with Lexer.Sym ":" -> advance st | _ -> ());
        default := parse_stmt st;
        arms_loop ()
      | Lexer.Eof -> unexpected st "'endcase'"
      | _ ->
        let labels = ref [ parse_cond st ] in
        while peek st = Lexer.Sym "," do
          advance st;
          labels := parse_cond st :: !labels
        done;
        expect_sym st ":";
        let body = parse_stmt st in
        List.iter (fun l -> arms := (l, body) :: !arms) (List.rev !labels);
        arms_loop ()
    in
    arms_loop ();
    expect_kw st "endcase";
    [ Ast.Case { scrutinee; arms = List.rev !arms; default = !default; spos = p } ]
  | Lexer.Id kw when is_keyword kw ->
    reject_stmt_keyword st kw;
    unexpected st "a statement"
  | Lexer.Id _ -> (
    let target = expect_ident st in
    match peek st with
    | Lexer.Sym "<=" ->
      advance st;
      let rhs = parse_cond st in
      (match peek st with
      | Lexer.Sym "#" ->
        fail (pos st) "unsupported construct '#' (delays are not synthesizable)"
      | _ -> ());
      expect_sym st ";";
      [ Ast.Nonblocking { target; rhs; spos = p } ]
    | Lexer.Sym "=" ->
      fail (pos st)
        "unsupported blocking assignment '=' inside always (use the \
         non-blocking '<=', or 'assign' outside the block)"
    | Lexer.Sym "[" ->
      fail (pos st)
        "unsupported indexed assignment target (assign the whole vector)"
    | _ -> unexpected st "'<='")
  | _ -> unexpected st "a statement"

(* --- declarations and items --- *)

let parse_range st =
  match peek st with
  | Lexer.Sym "[" ->
    let p = pos st in
    advance st;
    let msb = expect_number st in
    expect_sym st ":";
    let lsb = expect_number st in
    expect_sym st "]";
    if lsb <> 0 then fail p "only [N:0] ranges are supported (got [%d:%d])" msb lsb;
    if msb < lsb then fail p "empty range [%d:%d]" msb lsb;
    Some { Ast.msb; lsb }
  | _ -> None

(* ("input"|"output"|"wire"|"reg") ("wire"|"reg")? range? name — the
   common prefix of ANSI ports and declaration items *)
let parse_decl_head st =
  let p = pos st in
  let dir, kind_tok =
    match peek st with
    | Lexer.Id "input" ->
      advance st;
      (Some Ast.Input, None)
    | Lexer.Id "output" ->
      advance st;
      (Some Ast.Output, None)
    | Lexer.Id "inout" -> fail (pos st) "unsupported port direction 'inout'"
    | Lexer.Id "wire" ->
      advance st;
      (None, Some Ast.Wire)
    | Lexer.Id "reg" ->
      advance st;
      (None, Some Ast.Reg)
    | _ -> unexpected st "'input', 'output', 'wire' or 'reg'"
  in
  let kind_tok =
    match (kind_tok, peek st) with
    | None, Lexer.Id "wire" ->
      advance st;
      Some Ast.Wire
    | None, Lexer.Id "reg" ->
      advance st;
      Some Ast.Reg
    | _ -> kind_tok
  in
  (match peek st with
  | Lexer.Id "signed" -> fail (pos st) "unsupported modifier 'signed'"
  | _ -> ());
  let kind =
    match kind_tok with
    | Some k -> k
    | None -> Ast.Wire (* a bare input/output defaults to wire *)
  in
  (* regs make no sense as inputs *)
  (match (dir, kind) with
  | Some Ast.Input, Ast.Reg -> fail p "an input cannot be declared 'reg'"
  | _ -> ());
  let range = parse_range st in
  (dir, kind, range, p)

let parse_ansi_port st =
  let dir, kind, range, p = parse_decl_head st in
  (match dir with
  | None ->
    fail p "ANSI port declarations need a direction ('input' or 'output')"
  | Some _ -> ());
  let name = expect_ident st in
  { Ast.name; dir; kind; range; dpos = p }

(* the port header: either ANSI declarations or a plain name list *)
let parse_ports st =
  match peek st with
  | Lexer.Sym ")" -> ([], [])
  | Lexer.Id ("input" | "output" | "inout") ->
    let decls = ref [ parse_ansi_port st ] in
    while peek st = Lexer.Sym "," do
      advance st;
      decls := parse_ansi_port st :: !decls
    done;
    let decls = List.rev !decls in
    (List.map (fun (d : Ast.decl) -> d.name) decls, decls)
  | _ ->
    let names = ref [ expect_ident st ] in
    while peek st = Lexer.Sym "," do
      advance st;
      names := expect_ident st :: !names
    done;
    (List.rev !names, [])

let parse_edge st =
  match peek st with
  | Lexer.Id "posedge" ->
    advance st;
    let p = pos st in
    let s = expect_ident st in
    (s, p)
  | Lexer.Id "negedge" ->
    fail (pos st) "unsupported edge 'negedge' (only posedge clocking)"
  | _ ->
    fail (pos st)
      "unsupported sensitivity list (only @(posedge CLK [or posedge RST]); \
       use 'assign' for combinational logic)"

let reject_item_keyword st kw =
  match kw with
  | "initial" ->
    fail (pos st)
      "unsupported construct 'initial' (simulation-only; registers power \
       up via your reset logic)"
  | "parameter" | "localparam" | "defparam" ->
    fail (pos st) "unsupported construct '%s' (parameters are not in the subset)"
      kw
  | "integer" | "real" | "genvar" ->
    fail (pos st) "unsupported declaration '%s'" kw
  | "generate" ->
    fail (pos st) "unsupported construct 'generate'"
  | "function" | "task" ->
    fail (pos st) "unsupported construct '%s'" kw
  | "specify" -> fail (pos st) "unsupported construct 'specify'"
  | "wand" | "wor" | "tri" | "supply0" | "supply1" ->
    fail (pos st) "unsupported net type '%s' (only 'wire' and 'reg')" kw
  | _ -> ()

let parse_item st =
  let p = pos st in
  match peek st with
  | Lexer.Sym "#" ->
    fail p "unsupported construct '#' (delays are not synthesizable)"
  | Lexer.Id ("input" | "output" | "inout" | "wire" | "reg") ->
    let dir, kind, range, hp = parse_decl_head st in
    let items = ref [] in
    let one () =
      let name = expect_ident st in
      items := Ast.Decl { name; dir; kind; range; dpos = hp } :: !items;
      (* "wire w = e;" sugars to a declaration plus a continuous assign *)
      match peek st with
      | Lexer.Sym "=" ->
        let ap = pos st in
        advance st;
        if kind = Ast.Reg then
          fail ap
            "unsupported declaration assignment on a reg (drive it from an \
             always block)";
        let rhs = parse_cond st in
        items := Ast.Assign { lhs = name; rhs; apos = ap } :: !items
      | _ -> ()
    in
    one ();
    while peek st = Lexer.Sym "," do
      advance st;
      one ()
    done;
    expect_sym st ";";
    List.rev !items
  | Lexer.Id "assign" ->
    advance st;
    let lhs_pos = pos st in
    let lhs = expect_ident st in
    (match peek st with
    | Lexer.Sym "[" ->
      fail lhs_pos
        "unsupported part-select assignment target (assign the whole vector)"
    | Lexer.Sym "=" -> advance st
    | _ -> unexpected st "'='");
    let rhs = parse_cond st in
    expect_sym st ";";
    [ Ast.Assign { lhs; rhs; apos = p } ]
  | Lexer.Id "always" ->
    advance st;
    (match peek st with
    | Lexer.Sym "@" -> advance st
    | _ -> unexpected st "'@'");
    (match peek st with
    | Lexer.Sym "*" ->
      fail (pos st)
        "unsupported sensitivity '@*' (use 'assign' for combinational logic)"
    | _ -> ());
    expect_sym st "(";
    (match peek st with
    | Lexer.Sym "*" ->
      fail (pos st)
        "unsupported sensitivity '@(*)' (use 'assign' for combinational \
         logic)"
    | _ -> ());
    let edges = ref [ parse_edge st ] in
    while peek st = Lexer.Id "or" do
      advance st;
      edges := parse_edge st :: !edges
    done;
    expect_sym st ")";
    let body = parse_stmt st in
    [ Ast.Always { edges = List.rev !edges; body; apos = p } ]
  | Lexer.Id kw when is_keyword kw ->
    reject_item_keyword st kw;
    unexpected st "a module item"
  | Lexer.Id i ->
    if String.length i > 0 && i.[0] = '$' then
      fail p "unsupported system task '%s'" i
    else
      fail p
        "unsupported construct starting at '%s' (module instantiation is \
         not in the subset; expected 'input', 'output', 'wire', 'reg', \
         'assign' or 'always')"
        i
  | _ -> unexpected st "a module item"

let parse_module st =
  let mpos = pos st in
  expect_kw st "module";
  let mname = expect_ident st in
  let ports, header_decls =
    match peek st with
    | Lexer.Sym "(" ->
      advance st;
      let ps = parse_ports st in
      expect_sym st ")";
      ps
    | _ -> ([], [])
  in
  expect_sym st ";";
  let items = ref (List.map (fun d -> Ast.Decl d) header_decls) in
  while peek st <> Lexer.Id "endmodule" && peek st <> Lexer.Eof do
    items := List.rev_append (parse_item st) !items
  done;
  expect_kw st "endmodule";
  (match peek st with
  | Lexer.Eof -> ()
  | Lexer.Id "module" ->
    fail (pos st) "only one module per file is supported"
  | _ -> unexpected st "end of input");
  { Ast.mname; ports; items = List.rev !items; mpos }

let parse text =
  match parse_module { toks = Array.of_list (Lexer.tokenize text); i = 0 } with
  | m -> Ok m
  | exception Sc_pipeline.Diag.Error d -> Error d
