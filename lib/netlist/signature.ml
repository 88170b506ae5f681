type port_sig =
  { sname : string
  ; sdir : Circuit.port_dir
  ; swidth : int
  }

type t =
  { mname : string
  ; sports : port_sig list
  ; clocked : bool
  }

let rec circuit_clocked (c : Circuit.t) =
  List.exists (fun (g : Circuit.gate_inst) -> Gate.is_sequential g.kind) c.gates
  || List.exists (fun (i : Circuit.inst) -> circuit_clocked i.sub) c.insts

let of_circuit (c : Circuit.t) =
  { mname = c.Circuit.cname
  ; sports =
      List.map
        (fun (p : Circuit.port) ->
          { sname = p.port_name; sdir = p.dir; swidth = Array.length p.bits })
        c.Circuit.ports
  ; clocked = circuit_clocked c
  }

let find t name = List.find_opt (fun p -> p.sname = name) t.sports

let dir_to_string = function Circuit.In -> "in" | Circuit.Out -> "out"

let port_to_string p =
  Printf.sprintf "%s %s[%d]" (dir_to_string p.sdir) p.sname p.swidth

let to_string t =
  Printf.sprintf "module %s (%s) %s" t.mname
    (String.concat ", " (List.map port_to_string t.sports))
    (if t.clocked then "clocked" else "comb")

let digest t = Digest.to_hex (Digest.string (to_string t))
