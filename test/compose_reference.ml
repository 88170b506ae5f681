(* Composition as it was before promoted ports were derived: the
   composed cell stored every instance's ports under "inst.port", each
   a fresh record with a fresh name and a transformed rectangle.  Kept
   verbatim as the differential oracle for [Compose.of_instances],
   [Cell.ports], [Cell.find_port_opt] and the CIF [Emit] writes (its
   cells label every port; read back, both files give the same ports),
   the way route_reference.ml keeps the old router.  Its cells store
   their ports, so [Cell.make] checks every promoted name. *)

open Sc_geom
open Sc_layout

(* "inst.port" in one allocation *)
let qualified inst port =
  let li = String.length inst and lp = String.length port in
  let b = Bytes.create (li + 1 + lp) in
  Bytes.blit_string inst 0 b 0 li;
  Bytes.set b li '.';
  Bytes.blit_string port 0 b (li + 1) lp;
  Bytes.unsafe_to_string b

(* All combinators funnel through [of_instances]: build the instance list,
   then export each sub-port under "instname.portname", in one pass over
   the instances' ports. *)
let of_instances ~name insts =
  let promote ports (i : Cell.inst) =
    List.fold_left
      (fun ports (p : Cell.port) ->
        { p with
          Cell.pname = qualified i.inst_name p.pname
        ; rect = Transform.apply_rect i.trans p.rect
        }
        :: ports)
      ports i.cell.ports
  in
  Cell.make ~name ~ports:(List.rev (List.fold_left promote [] insts)) ~instances:insts []
