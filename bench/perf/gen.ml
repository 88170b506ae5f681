(* Seeded design generator: a register file feeding an accumulator ALU.

   A design has [regs] registers of [width] bits, a read-select decoder
   in front of the ALU's second operand, [ops] operations, and a compare
   of the accumulator against a constant.  Width and register count set
   the size (roughly linear in width * regs).  Which operations a design
   has follows from its shape; the seed and the design's index pick
   which opcode selects which operation and the compare constant, so
   designs of one shape differ but cost the same. *)

type params =
  { width : int  (** 3..16 *)
  ; regs : int  (** 1..8 *)
  ; ops : int  (** 2..4 *)
  }

type design =
  { name : string
  ; params : params
  ; source : string
  ; design : Sc_rtl.Ast.design
  }

let op_pool =
  [| "acc + a"; "acc - a"; "acc & a"; "acc ^ a"; "acc | a"; "a - acc"
   ; "(acc + a) ^ din"; "acc + din"
  |]

let bits_for n =
  let rec go b = if 1 lsl b >= n then b else go (b + 1) in
  max 1 (go 0)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* [shape] picks the operations, [rng] their opcodes and the constant *)
let source ~name ~shape ~rng p =
  let w = p.width and r = p.regs in
  let sel_bits = bits_for r in
  let chosen = shuffle rng (Array.sub (shuffle shape (Array.copy op_pool)) 0 p.ops) in
  let constant = Random.State.int rng (1 lsl w) in
  let regs = List.init r (Printf.sprintf "r%d") in
  let b = Buffer.create 1024 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  line "-- generated: %d-bit register file (%d) + accumulator ALU (%d ops)" w r
    p.ops;
  line "module %s;" name;
  line "inputs reset[1], op[2], sel[%d], wsel[%d], we[1], din[%d];" sel_bits
    sel_bits w;
  line "outputs y[%d], hit[1];" w;
  line "registers %s;"
    (String.concat ", " (List.map (fun n -> Printf.sprintf "%s[%d]" n w) ("acc" :: regs)));
  line "wires a[%d], res[%d];" w w;
  line "behavior";
  (* every wire is assigned before its decode: the checker rejects a
     wire read on a path where the decode left it unassigned *)
  line "  a := 0;";
  line "  decode sel";
  List.iteri (fun i n -> line "    %d: a := %s;" i n) regs;
  line "  end";
  line "  res := acc;";
  line "  decode op";
  Array.iteri (fun i e -> line "    %d: res := %s;" i e) chosen;
  line "  end";
  line "  if reset == 1 then";
  line "    %s"
    (String.concat " " (List.map (Printf.sprintf "%s := 0;") ("acc" :: regs)));
  line "  else";
  line "    acc := res;";
  line "    if we == 1 then";
  line "      decode wsel";
  List.iteri (fun i n -> line "        %d: %s := din;" i n) regs;
  line "      end";
  line "    end";
  line "  end";
  line "  y := acc;";
  line "  hit := acc == %d;" constant;
  line "end";
  Buffer.contents b

(* a reset cycle, then seeded random inputs *)
let stimulus ~rng (d : Sc_rtl.Ast.design) cycles =
  let table =
    Array.init cycles (fun cyc ->
        List.map
          (fun (decl : Sc_rtl.Ast.decl) ->
            let v =
              if decl.dname = "reset" then if cyc = 0 then 1 else 0
              else Random.State.int rng (1 lsl decl.width)
            in
            (decl.dname, v))
          d.Sc_rtl.Ast.inputs)
  in
  fun cyc -> table.(cyc mod cycles)

exception Invalid of string

let fail name fmt = Printf.ksprintf (fun m -> raise (Invalid (name ^ ": " ^ m))) fmt

(* [make ~seed ~index p] — the design, checked: it parses, passes
   [Sc_rtl.Check], and its synthesized netlist matches the independent
   interpreter cycle for cycle.  Raises [Invalid] otherwise. *)
let make ~seed ~index p =
  if p.width < 3 || p.width > 16 || p.regs < 1 || p.regs > 8 || p.ops < 2
     || p.ops > 4
  then invalid_arg "Gen.make: parameters out of range";
  let shape = Random.State.make [| p.width; p.regs; p.ops |] in
  let rng = Random.State.make [| seed; index; p.width; p.regs; p.ops |] in
  let name = Printf.sprintf "g%d_%dx%d_%d" index p.width p.regs p.ops in
  let src = source ~name ~shape ~rng p in
  let design =
    match Sc_rtl.Parser.parse src with
    | Error e -> fail name "parse: %s" e
    | Ok d -> d
  in
  (match Sc_rtl.Check.check design with
  | [] -> ()
  | e :: _ -> fail name "check: %s" e);
  let circuit = (Sc_synth.Synth.gates design).Sc_synth.Synth.circuit in
  if not (Sc_synth.Synth.verify_against_interp design circuit 48
            (stimulus ~rng design 48))
  then fail name "synthesized netlist disagrees with the interpreter";
  { name; params = p; source = src; design }

(* [edit_constant d c] — [d] with compare constant [c]: a one-token
   edit after which every pass of the pipeline misses. *)
let edit_constant d c =
  let marker = "  hit := acc == " in
  let rec find i =
    if i + String.length marker > String.length d.source then
      invalid_arg "Gen.edit_constant"
    else if String.sub d.source i (String.length marker) = marker then i
    else find (i + 1)
  in
  let start = find 0 + String.length marker in
  let stop = String.index_from d.source start ';' in
  String.sub d.source 0 start ^ string_of_int c
  ^ String.sub d.source stop (String.length d.source - stop)
