type source_module =
  { sm_name : string
  ; sm_text : string
  ; sm_line : int
  }

type port_decl =
  { pd_name : string
  ; pd_width : int
  }

type instance =
  { ci_name : string
  ; ci_module : string
  }

type endpoint =
  | Cport of string
  | Ipin of string * string

type chip_decl =
  { ch_name : string
  ; ch_inputs : port_decl list
  ; ch_outputs : port_decl list
  ; ch_insts : instance list
  ; ch_connects : (endpoint * endpoint) list
  }

type t =
  { modules : source_module list
  ; chip : chip_decl option
  }

(* --- lexical split ---------------------------------------------------- *)

module L = Sc_rtl.Lexer
module Diag = Sc_pipeline.Diag

(* the identifier a line starts with, past blanks; "" if none *)
let first_word line =
  match L.peek (L.create line) with
  | L.Ident w -> w
  | _ | (exception L.Error _) -> ""

let is_modular src =
  List.exists (fun l -> first_word l = "chip") (String.split_on_char '\n' src)

(* Cut at top-level "module"/"chip" keyword lines.  The ISP grammar
   nests [end]s, so keyword lines — not end-counting — delimit blocks;
   both keywords are only ever top-level in this dialect.  Each block
   carries the source line it starts on. *)
let blocks src =
  let flush acc = function
    | None -> acc
    | Some (kw, first, ls) ->
      (kw, first, String.concat "\n" (List.rev ls)) :: acc
  in
  let acc, cur =
    List.fold_left
      (fun (acc, cur) (lnum, line) ->
        match (first_word line, cur) with
        | (("module" | "chip") as kw), _ ->
          (flush acc cur, Some (kw, lnum, [ line ]))
        | _, None -> (acc, None) (* preamble before the first block *)
        | _, Some (kw, first, ls) -> (acc, Some (kw, first, line :: ls)))
      ([], None)
      (List.mapi (fun i line -> (i + 1, line)) (String.split_on_char '\n' src))
  in
  List.rev (flush acc cur)

(* --- chip block parser ------------------------------------------------ *)

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun s -> Error (Diag.v ~stage:"chip" s)) fmt

let in_source ~first (d : Diag.t) =
  let shift (p : Diag.pos) = { p with line = p.line + first - 1 } in
  { d with loc = Option.map shift d.loc }

(* [f] on a cursor over a block that starts on source line [first] *)
let parse_block ~first f text =
  match f (L.create text) with
  | v -> Ok v
  | exception L.Error (loc, msg) ->
    Error (in_source ~first (Diag.v ~loc ~stage:"chip" msg))

let parse_chip st =
  let ident () = L.expect_ident st [] in
  let rec ports acc =
    let name = ident () in
    L.expect_sym st "[";
    let w =
      match L.peek st with
      | L.Int w when w >= 1 ->
        L.advance st;
        w
      | t ->
        L.fail st "port %s: expected a positive width, found %s" name
          (L.describe t)
    in
    L.expect_sym st "]";
    let acc = { pd_name = name; pd_width = w } :: acc in
    if L.accept st (L.Sym ",") then ports acc
    else if L.accept st (L.Sym ";") then List.rev acc
    else
      L.fail st "port list after %s: expected \",\" or \";\", found %s" name
        (L.describe (L.peek st))
  in
  let endpoint () =
    let a = ident () in
    if L.accept st (L.Sym ".") then Ipin (a, ident ()) else Cport a
  in
  (* an instance or connection list runs to the next section keyword *)
  let rec items parse acc =
    match L.peek st with
    | L.Ident ("inputs" | "outputs" | "instances" | "connect" | "end") | L.Eof ->
      List.rev acc
    | _ -> items parse (parse () :: acc)
  in
  let inst () =
    let iname = ident () in
    L.expect_sym st ":";
    let mname = ident () in
    L.expect_sym st ";";
    { ci_name = iname; ci_module = mname }
  in
  let conn () =
    let sink = endpoint () in
    L.expect_sym st "=";
    let src = endpoint () in
    L.expect_sym st ";";
    (sink, src)
  in
  L.expect_kw st "chip";
  let name = ident () in
  L.expect_sym st ";";
  let rec sections ins outs insts conns =
    let section s = L.accept st (L.Ident s) in
    if section "inputs" then sections (ins @ ports []) outs insts conns
    else if section "outputs" then sections ins (outs @ ports []) insts conns
    else if section "instances" then
      sections ins outs (insts @ items inst []) conns
    else if section "connect" then
      sections ins outs insts (conns @ items conn [])
    else
      match L.peek st with
      | L.Ident "end" ->
        (* nothing after the end is read *)
        { ch_name = name
        ; ch_inputs = ins
        ; ch_outputs = outs
        ; ch_insts = insts
        ; ch_connects = conns
        }
      | L.Eof -> L.fail st "chip %s: missing end" name
      | t ->
        L.fail st "chip %s: expected a section or end, found %s" name
          (L.describe t)
  in
  sections [] [] [] []

let dup_by f l =
  let rec go seen = function
    | [] -> None
    | x :: rest -> if List.mem (f x) seen then Some x else go (f x :: seen) rest
  in
  go [] l

let split src =
  let bs = blocks src in
  if bs = [] then err "no module or chip blocks found"
  else
    let* modules, chips =
      List.fold_left
        (fun acc (kw, first, text) ->
          let* ms, cs = acc in
          match kw with
          | "module" ->
            let module_name st = L.expect_kw st "module"; L.expect_ident st [] in
            let* n = parse_block ~first module_name text in
            Ok (ms @ [ { sm_name = n; sm_text = text; sm_line = first } ], cs)
          | _ ->
            let* c = parse_block ~first parse_chip text in
            Ok (ms, cs @ [ c ]))
        (Ok ([], []))
        bs
    in
    let* chip =
      match chips with
      | [] -> Ok None
      | [ c ] -> Ok (Some c)
      | c :: _ -> err "multiple chip blocks (first: %s)" c.ch_name
    in
    let* () =
      match dup_by (fun m -> m.sm_name) modules with
      | Some m -> err "duplicate module %s" m.sm_name
      | None -> Ok ()
    in
    match chip with
    | None -> Ok { modules; chip }
    | Some c -> (
      let* () =
        match dup_by (fun i -> i.ci_name) c.ch_insts with
        | Some i -> err "chip %s: duplicate instance %s" c.ch_name i.ci_name
        | None -> Ok ()
      in
      match
        List.find_opt
          (fun i ->
            not (List.exists (fun m -> m.sm_name = i.ci_module) modules))
          c.ch_insts
      with
      | Some i ->
        err "chip %s: instance %s names unknown module %s" c.ch_name i.ci_name
          i.ci_module
      | None -> Ok { modules; chip })

(* --- signature-level resolution --------------------------------------- *)

type bit =
  { b_end : endpoint
  ; b_idx : int
  ; b_width : int
  }

type chip_net =
  { cn_src : bit
  ; cn_sinks : bit list
  }

let bit_name ep ~width idx =
  let base = match ep with Cport p -> p | Ipin (_, p) -> p in
  if width = 1 then base else Printf.sprintf "%s[%d]" base idx

let resolve chip ~sigs =
  let module Sig = Sc_netlist.Signature in
  (* direction seen from the chip's router: `Source can drive a net,
     `Sink must be driven *)
  let classify ep =
    match ep with
    | Cport p -> (
      match
        ( List.find_opt (fun d -> d.pd_name = p) chip.ch_inputs
        , List.find_opt (fun d -> d.pd_name = p) chip.ch_outputs )
      with
      | Some d, _ ->
        Ok (`Source, d.pd_width, Printf.sprintf "chip input %s[%d]" p d.pd_width)
      | _, Some d ->
        Ok (`Sink, d.pd_width, Printf.sprintf "chip output %s[%d]" p d.pd_width)
      | None, None -> err "chip %s has no port %s" chip.ch_name p)
    | Ipin (iname, pname) -> (
      match List.find_opt (fun x -> x.ci_name = iname) chip.ch_insts with
      | None -> err "unknown instance %s" iname
      | Some inst -> (
        match sigs inst.ci_module with
        | None -> err "no signature for module %s" inst.ci_module
        | Some s -> (
          match Sig.find s pname with
          | None ->
            err "instance %s: module %s has no port %s" iname inst.ci_module
              pname
          | Some p ->
            let dir, word =
              match p.Sig.sdir with
              | Sc_netlist.Circuit.In -> (`Sink, "in")
              | Sc_netlist.Circuit.Out -> (`Source, "out")
            in
            Ok
              ( dir
              , p.Sig.swidth
              , Printf.sprintf "%s.%s (module %s, %s %s[%d])" iname pname
                  inst.ci_module word pname p.Sig.swidth ))))
  in
  let* conns =
    List.fold_left
      (fun acc (sink, src) ->
        let* acc = acc in
        let* sdir, sw, sdescr = classify sink in
        let* ddir, dw, ddescr = classify src in
        if sdir <> `Sink then
          err "connection sink %s is a driver, not a destination" sdescr
        else if ddir <> `Source then
          err "connection source %s is an input, it cannot drive" ddescr
        else if sw <> dw then
          err "width mismatch: %s connected to %s" sdescr ddescr
        else Ok ((sink, src, sw, sdescr) :: acc))
      (Ok []) chip.ch_connects
  in
  let conns = List.rev conns in
  (* one driver per sink bit *)
  let sink_bits : (endpoint * int, unit) Hashtbl.t = Hashtbl.create 32 in
  let* () =
    List.fold_left
      (fun acc (sink, _, w, sdescr) ->
        let* () = acc in
        let rec go k =
          if k = w then Ok ()
          else if Hashtbl.mem sink_bits (sink, k) then
            err "%s bit %d is driven more than once" sdescr k
          else begin
            Hashtbl.add sink_bits (sink, k) ();
            go (k + 1)
          end
        in
        go 0)
      (Ok ()) conns
  in
  (* completeness: every chip output and every instance input driven *)
  let* () =
    List.fold_left
      (fun acc d ->
        let* () = acc in
        let rec go k =
          if k = d.pd_width then Ok ()
          else if Hashtbl.mem sink_bits (Cport d.pd_name, k) then go (k + 1)
          else
            err "chip output %s bit %d is not driven by any connection"
              d.pd_name k
        in
        go 0)
      (Ok ()) chip.ch_outputs
  in
  let* () =
    List.fold_left
      (fun acc inst ->
        let* () = acc in
        match sigs inst.ci_module with
        | None -> err "no signature for module %s" inst.ci_module
        | Some s ->
          List.fold_left
            (fun acc (p : Sig.port_sig) ->
              let* () = acc in
              if p.Sig.sdir <> Sc_netlist.Circuit.In then Ok ()
              else
                let rec go k =
                  if k = p.Sig.swidth then Ok ()
                  else if
                    Hashtbl.mem sink_bits (Ipin (inst.ci_name, p.Sig.sname), k)
                  then go (k + 1)
                  else
                    err
                      "instance %s (module %s): input %s bit %d is not \
                       connected"
                      inst.ci_name inst.ci_module p.Sig.sname k
                in
                go 0)
            (Ok ()) s.Sig.sports)
      (Ok ()) chip.ch_insts
  in
  (* group by source bit so fanout shares one net *)
  let tbl : (bit, bit list ref) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun (sink, src, w, _) ->
      for k = 0 to w - 1 do
        let src_bit = { b_end = src; b_idx = k; b_width = w } in
        (if not (Hashtbl.mem tbl src_bit) then begin
           Hashtbl.add tbl src_bit (ref []);
           order := src_bit :: !order
         end);
        let r = Hashtbl.find tbl src_bit in
        r := { b_end = sink; b_idx = k; b_width = w } :: !r
      done)
    conns;
  Ok
    (List.rev_map
       (fun src_bit ->
         { cn_src = src_bit; cn_sinks = List.rev !(Hashtbl.find tbl src_bit) })
       !order)

let endpoint_repr = function
  | Cport p -> p
  | Ipin (i, p) -> i ^ "." ^ p

let decl_repr c =
  Printf.sprintf "chip %s;inputs %s;outputs %s;instances %s;connect %s"
    c.ch_name
    (String.concat ","
       (List.map (fun d -> Printf.sprintf "%s[%d]" d.pd_name d.pd_width) c.ch_inputs))
    (String.concat ","
       (List.map (fun d -> Printf.sprintf "%s[%d]" d.pd_name d.pd_width) c.ch_outputs))
    (String.concat ","
       (List.map (fun i -> i.ci_name ^ ":" ^ i.ci_module) c.ch_insts))
    (String.concat ","
       (List.map
          (fun (sink, src) -> endpoint_repr sink ^ "=" ^ endpoint_repr src)
          c.ch_connects))
