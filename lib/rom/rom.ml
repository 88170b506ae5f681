open Sc_logic

type t =
  { words : int
  ; bits : int
  ; addr_width : int
  ; pla : Sc_pla.Generator.t
  }

let rec clog2 n = if n <= 1 then 0 else 1 + clog2 ((n + 1) / 2)

let generate ?(optimize = false) ?(name = "rom") ~bits contents =
  let words = Array.length contents in
  if words = 0 then invalid_arg "Rom.generate: empty contents";
  if bits < 1 || bits > 62 then invalid_arg "Rom.generate: bits out of range";
  let addr_width = max 1 (clog2 words) in
  let cubes = ref [] in
  Array.iteri
    (fun w data ->
      let mask = data land ((1 lsl bits) - 1) in
      if mask <> 0 then begin
        let lits = Array.init addr_width (fun i ->
            if w land (1 lsl i) <> 0 then Cube.One else Cube.Zero)
        in
        cubes := Cube.make lits mask :: !cubes
      end)
    contents;
  let cover =
    Cover.make ~ninputs:addr_width ~noutputs:bits (List.rev !cubes)
  in
  let pla = Sc_pla.Generator.generate ~minimize:optimize ~name cover in
  { words; bits; addr_width; pla }

let layout t = t.pla.Sc_pla.Generator.layout
let netlist t = t.pla.Sc_pla.Generator.netlist

let pp_summary ppf t =
  Format.fprintf ppf "ROM %dx%d (addr %d): %a" t.words t.bits t.addr_width
    Sc_pla.Generator.pp_summary t.pla
