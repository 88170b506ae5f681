(* Separate compilation: interface signatures, macro assembly, and the
   modular driver. *)

open Sc_netlist
module Sig = Signature

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* --- signatures --- *)

let alu_like name ow =
  let b = Builder.create name in
  let a = Builder.input b "a" 4 in
  let c = Builder.input b "b" 4 in
  let y = Array.init ow (fun i -> Builder.xor2 b a.(i mod 4) c.(i mod 4)) in
  Builder.output b "y" y;
  Builder.finish b

let clocked_circuit () =
  let b = Builder.create "reg1" in
  let d = Builder.input b "d" 1 in
  let q = Builder.gate b Gate.Dff [| d.(0) |] in
  Builder.output b "q" [| q |];
  Builder.finish b

let test_signature_extract () =
  let s = Sig.of_circuit (alu_like "alu" 4) in
  check_string "name" "alu" s.Sig.mname;
  check_int "ports" 3 (List.length s.Sig.sports);
  check_bool "comb" false s.Sig.clocked;
  check_string "canonical rendering is the digest's preimage"
    (Digest.to_hex
       (Digest.string "module alu (in a[4], in b[4], out y[4]) comb"))
    (Sig.digest s);
  let r = Sig.of_circuit (clocked_circuit ()) in
  check_bool "clocked" true r.Sig.clocked

let test_signature_digest_stability () =
  let s1 = Sig.of_circuit (alu_like "alu" 4) in
  let s2 = Sig.of_circuit (alu_like "alu" 4) in
  check_string "same interface, same digest" (Sig.digest s1) (Sig.digest s2);
  let s3 = Sig.of_circuit (alu_like "alu" 8) in
  check_bool "width change, new digest" true (Sig.digest s1 <> Sig.digest s3)

let test_signature_compatible () =
  let a4 = Sig.of_circuit (alu_like "alu_ref" 4) in
  let b4 = Sig.of_circuit (alu_like "alu" 4) in
  (match Sig.compatible ~expected:a4 ~got:b4 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "expected compatible: %s" e);
  match Sig.compatible ~expected:a4 ~got:(Sig.of_circuit (alu_like "alu" 8)) with
  | Ok () -> Alcotest.fail "width mismatch accepted"
  | Error e ->
    (* the Diag material must name both modules and the port *)
    List.iter
      (fun needle ->
        check_bool (needle ^ " named") true (contains ~needle e))
      [ "alu_ref"; "alu"; "y" ]

let test_signature_missing_port () =
  let b = Builder.create "half" in
  let a = Builder.input b "a" 4 in
  Builder.output b "y" (Array.map (fun n -> n) a);
  let half = Sig.of_circuit (Builder.finish b) in
  let full = Sig.of_circuit (alu_like "alu" 4) in
  match Sig.compatible ~expected:full ~got:half with
  | Ok () -> Alcotest.fail "missing port accepted"
  | Error e ->
    check_bool "names the port" true (contains ~needle:"b" e)

(* --- macro assembly --- *)

open Sc_layout
open Sc_chip

let block name w h =
  Cell.make ~name [ Cell.box Sc_tech.Layer.Metal (Sc_geom.Rect.make 0 0 w h) ]

(* the wrapper [pack] places for a module *)
let test_macro_wrapper () =
  let p =
    Assemble.pack ~name:"one"
      ~macros:
        [ { Assemble.mi_name = "u0"
          ; mi_pins = [ "x[0]"; "x[1]"; "q" ]
          ; mi_cell = block "b" 60 40
          }
        ]
      ~chip_ports:[] ~nets:[] ()
  in
  let u0 =
    List.find (fun (i : Cell.inst) -> i.inst_name = "u0") p.Assemble.core.Cell.instances
  in
  let m = u0.cell in
  check_int "ports" 3 (List.length m.Cell.ports);
  let p1 = Cell.find_port m "x[1]" in
  check_int "pin on grid" 14 p1.Cell.rect.Sc_geom.Rect.xmin;
  check_bool "clean" true (Sc_drc.Checker.is_clean m)

let pack_two () =
  Assemble.pack ~name:"two"
    ~macros:
      [ { Assemble.mi_name = "u0"; mi_pins = [ "a"; "y" ]; mi_cell = block "ba" 60 40 }
      ; { Assemble.mi_name = "u1"; mi_pins = [ "p"; "q" ]; mi_cell = block "bb" 90 70 }
      ]
    ~chip_ports:[ "in0"; "out0" ]
    ~nets:
      [ { Assemble.net_name = "in0"; ends = [ Assemble.Chip "in0"; Pin ("u0", "a") ] }
      ; { Assemble.net_name = "mid"; ends = [ Pin ("u0", "y"); Pin ("u1", "p") ] }
      ; { Assemble.net_name = "out0"; ends = [ Pin ("u1", "q"); Chip "out0" ] }
      ]
    ()

let test_pack_structure () =
  let p = pack_two () in
  check_int "macros" 2 p.Assemble.macro_count;
  check_int "chip ports" 2 (List.length p.Assemble.core.Cell.ports);
  (* two macros + the channel *)
  check_int "instances" 3 (List.length p.Assemble.core.Cell.instances);
  check_bool "routed some tracks" true (p.Assemble.channel_tracks >= 1)

let test_pack_drc_clean () =
  let p = pack_two () in
  Alcotest.(check string) "clean" "DRC clean\n"
    (Format.asprintf "%a" Sc_drc.Checker.report (Sc_drc.Checker.check p.Assemble.core))

let test_pack_shares_wrappers () =
  let b = block "same" 60 40 in
  let p =
    Assemble.pack ~name:"twins"
      ~macros:
        [ { Assemble.mi_name = "u0"; mi_pins = [ "a" ]; mi_cell = b }
        ; { Assemble.mi_name = "u1"; mi_pins = [ "a" ]; mi_cell = b }
        ]
      ~chip_ports:[] ~nets:[] ()
  in
  let wrappers =
    List.filter_map
      (fun (i : Cell.inst) ->
        if i.inst_name = "channel" then None else Some i.cell.Cell.id)
      p.Assemble.core.Cell.instances
  in
  match wrappers with
  | [ a; b ] -> check_int "one shared wrapper cell" a b
  | _ -> Alcotest.fail "expected two macro instances"

let test_pack_framed_drc_clean () =
  let p = pack_two () in
  let a =
    Assemble.assemble ~name:"chip" ~core:p.Assemble.core ~pads:6 ()
  in
  check_bool "framed clean" true (Sc_drc.Checker.is_clean a.Assemble.chip)

let test_pack_rejects_unknown () =
  let reject f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "unknown pin" true
    (reject (fun () ->
         Assemble.pack ~name:"bad"
           ~macros:[ { Assemble.mi_name = "u"; mi_pins = [ "a" ]; mi_cell = block "b" 20 20 } ]
           ~chip_ports:[]
           ~nets:[ { Assemble.net_name = "n"; ends = [ Assemble.Pin ("u", "zz") ] } ]
           ()));
  check_bool "duplicate instance" true
    (reject (fun () ->
         Assemble.pack ~name:"bad"
           ~macros:
             [ { Assemble.mi_name = "u"; mi_pins = []; mi_cell = block "b" 20 20 }
             ; { Assemble.mi_name = "u"; mi_pins = []; mi_cell = block "c" 20 20 }
             ]
           ~chip_ports:[] ~nets:[] ()))

(* --- the modular driver: compile_behavior on a [chip] source --- *)

module Compiler = Sc_core.Compiler
module Chipdesc = Sc_core.Chipdesc
module Designs = Sc_core.Designs

let compile_system () =
  match Compiler.compile_behavior Designs.system_src with
  | Ok r -> r
  | Error d -> Alcotest.failf "modular compile failed: %s" (Sc_pipeline.Diag.to_string d)

let test_modular_compile () =
  let c, circuit = compile_system () in
  check_int "whole chip DRC clean" 0 c.Compiler.drc_violations;
  check_bool "nonzero area" true (c.Compiler.area > 0);
  check_string "stitched top" "system" circuit.Circuit.cname;
  (* the stitched circuit has the chip's interface *)
  let port n =
    List.find (fun (p : Circuit.port) -> p.port_name = n) circuit.Circuit.ports
  in
  check_int "q width" 4 (Array.length (port "q").Circuit.bits);
  check_int "insts" 2 (List.length circuit.Circuit.insts)

let test_modular_detect () =
  check_bool "system is modular" true (Chipdesc.is_modular Designs.system_src);
  check_bool "counter is flat" false (Chipdesc.is_modular Designs.counter_src)

let replace ~sub ~by s =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then Alcotest.failf "no %s in source" sub
    else if String.sub s i n = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

let test_chip_split_errors () =
  let expect_err ~needles src =
    match Chipdesc.split src with
    | Ok _ -> Alcotest.failf "accepted: %s" (String.concat "/" needles)
    | Error e ->
      List.iter
        (fun needle ->
          check_bool (needle ^ " named in " ^ e) true (contains ~needle e))
        needles
  in
  let base = Designs.system_src in
  expect_err ~needles:[ "duplicate module"; "mixer" ]
    (base ^ "\nmodule mixer;\ninputs a[1];\noutputs y[1];\nbehavior\n"
   ^ "  y := a;\nend\n");
  expect_err ~needles:[ "u_mix" ]
    (replace ~sub:"u_acc : accum" ~by:"u_mix : accum" base);
  expect_err ~needles:[ "unknown module"; "nosuch" ]
    (replace ~sub:"u_acc : accum" ~by:"u_acc : nosuch" base);
  expect_err ~needles:[ "chip" ]
    (base ^ "\nchip second;\ninputs a[1];\noutputs y[1];\nend\n");
  (* chip-block syntax errors carry the offending token *)
  expect_err ~needles:[ "=" ]
    (replace ~sub:"u_mix.a = a" ~by:"u_mix.a a" base)

(* interface mismatches surface as Diags through the compile path,
   naming the instances and ports involved *)
let test_modular_resolve_diags () =
  let expect_diag ~needles src =
    match Compiler.compile_behavior src with
    | Ok _ -> Alcotest.failf "compiled: %s" (String.concat "/" needles)
    | Error d ->
      let e = Sc_pipeline.Diag.to_string d in
      List.iter
        (fun needle ->
          check_bool (needle ^ " named in " ^ e) true (contains ~needle e))
        needles
  in
  let base = Designs.system_src in
  (* width mismatch: 4-wide mixer output into the 1-wide reset pin *)
  expect_diag ~needles:[ "width"; "u_acc.reset"; "u_mix.y" ]
    (replace ~sub:"u_acc.reset = reset" ~by:"u_acc.reset = u_mix.y"
       (replace ~sub:"inputs a[4], b[4], reset[1];" ~by:"inputs a[4], b[4];"
          base));
  (* direction abuse: an instance output used as a sink *)
  expect_diag ~needles:[ "u_mix.y"; "driver" ]
    (base |> replace ~sub:"u_acc.d = u_mix.y" ~by:"u_mix.y = u_acc.q");
  (* completeness: an undriven instance input names instance + port *)
  expect_diag ~needles:[ "u_acc"; "reset" ]
    (replace ~sub:"  u_acc.reset = reset;\n" ~by:"" base);
  (* an unknown pin on an instance *)
  expect_diag ~needles:[ "u_mix"; "zz" ]
    (replace ~sub:"u_mix.a = a" ~by:"u_mix.zz = a" base)

(* module errors surface with the module name on the stage *)
let test_modular_module_diag () =
  let bad =
    replace ~sub:"y := a ^ b;" ~by:"y := a ^ nosuchnet;" Designs.system_src
  in
  match Compiler.compile_behavior bad with
  | Ok _ -> Alcotest.fail "bad module body compiled"
  | Error d ->
    let e = Sc_pipeline.Diag.to_string d in
    check_bool ("module stage in " ^ e) true (contains ~needle:"module:" e)

(* determinism: -j1 and -j4 fan-outs produce byte-identical QoR *)
let qor_at ~jobs src =
  Sc_par.Pool.set_default_size jobs;
  let recorder = Sc_obs.Obs.Recorder.create () in
  Sc_obs.Obs.Recorder.enable recorder;
  let r =
    Sc_obs.Obs.with_recorder recorder (fun () -> Compiler.compile_behavior src)
  in
  Sc_par.Pool.set_default_size 1;
  match r with
  | Error d -> Alcotest.failf "compile: %s" (Sc_pipeline.Diag.to_string d)
  | Ok (c, _) ->
    let s =
      Sc_metrics.Metrics.qor_string
        (Sc_metrics.Metrics.capture ~recorder ~design:"system" ())
    in
    (c.Compiler.cif, s)

let test_modular_determinism () =
  let cif1, qor1 = qor_at ~jobs:1 Designs.system_src in
  let cif4, qor4 = qor_at ~jobs:4 Designs.system_src in
  check_string "CIF identical at -j1/-j4" cif1 cif4;
  check_string "QoR identical at -j1/-j4" qor1 qor4;
  check_bool "per-module QoR present" true
    (contains ~needle:"module.mixer.area" qor1
    && contains ~needle:"module.accum.area" qor1)

(* the incremental matrix: editing one module re-runs exactly that
   module's sub-pipeline plus assembly; the other module is all-hit *)
let test_modular_incremental () =
  let module P = Sc_pipeline.Pipeline in
  P.disable_cache ();
  P.clear_caches ();
  Fun.protect
    ~finally:(fun () ->
      P.disable_cache ();
      P.clear_caches ())
    (fun () ->
      P.enable_cache ();
      let compile src =
        match P.with_log (fun () -> Compiler.compile_behavior src) with
        | Ok (c, _), log -> (c.Compiler.cif, log)
        | Error d, _ -> Alcotest.failf "%s" (Sc_pipeline.Diag.to_string d)
      in
      let ran lg =
        List.filter_map
          (fun (n, st) -> if st = P.Ran then Some n else None)
          lg
      in
      let cold_cif, _ = compile Designs.system_src in
      let warm_cif, warm = compile Designs.system_src in
      Alcotest.(check (list string)) "warm all-hit" [] (ran warm);
      check_string "warm CIF identical to cold" cold_cif warm_cif;
      let edited =
        replace ~sub:"y := a ^ b" ~by:"y := a | b" Designs.system_src
      in
      let edited_cif, edited_log = compile edited in
      Alcotest.(check (list string))
        "mixer edit re-runs mixer + assembly only"
        [ "mixer:parse"; "mixer:compile"; "mixer:optimize"; "mixer:place"
        ; "mixer:route"; "mixer:drc"; "mixer:emit"; "mixer:measure"
        ; "assemble"; "drc"; "emit"; "measure"
        ]
        (ran edited_log);
      check_bool "the mixer edit changes the CIF" false
        (String.equal cold_cif edited_cif))

(* Two concurrent compiles of one modular source on a 2-wide pool, many
   rounds: module tasks share the pool with the DRC tasks they submit
   and share in-flight module runs with each other.  A submitter that
   helped with another compile's module could end up waiting on a
   flight it owns further down its own stack, so a hang here is the
   failure; the watchdog turns it into an exit instead of a stuck
   suite.  Every round must produce the same CIF. *)
let test_modular_concurrent_dedup () =
  Sc_par.Pool.set_default_size 2;
  Fun.protect ~finally:(fun () -> Sc_par.Pool.set_default_size 1)
  @@ fun () ->
  let rounds = 24 and deadline_s = 60. in
  let started = Unix.gettimeofday () in
  let compile () =
    match Compiler.compile_behavior Designs.system_src with
    | Ok (c, _) -> Ok c.Compiler.cif
    | Error d -> Error (Sc_pipeline.Diag.to_string d)
  in
  let cifs =
    List.concat
      (List.init rounds (fun _ ->
           let finished = Atomic.make 0 in
           let go = Atomic.make false in
           let ds =
             List.init 2 (fun _ ->
                 Domain.spawn (fun () ->
                     while not (Atomic.get go) do
                       Domain.cpu_relax ()
                     done;
                     let r = compile () in
                     Atomic.incr finished;
                     r))
           in
           Atomic.set go true;
           while Atomic.get finished < 2 do
             if Unix.gettimeofday () -. started > deadline_s then begin
               Printf.eprintf
                 "FAIL: concurrent modular compiles still running after %.0f \
                  s (deadlock)\n%!"
                 deadline_s;
               Unix._exit 1
             end;
             Unix.sleepf 0.002
           done;
           List.map Domain.join ds))
  in
  match cifs with
  | Ok first :: _ ->
    List.iteri
      (fun i r ->
        match r with
        | Ok c -> check_string (Printf.sprintf "cif %d identical" i) first c
        | Error e -> Alcotest.failf "concurrent compile %d: %s" i e)
      cifs
  | Error e :: _ -> Alcotest.failf "concurrent compile: %s" e
  | [] -> Alcotest.fail "no results"

let test_modular_rejects_pla () =
  match
    Compiler.compile_behavior ~style:Compiler.Pla_control Designs.system_src
  with
  | Ok _ -> Alcotest.fail "pla style accepted for modular source"
  | Error d ->
    check_bool "mentions gates style" true
      (contains ~needle:"gates" (Sc_pipeline.Diag.to_string d))

let suite =
  [ Alcotest.test_case "signature extract" `Quick test_signature_extract
  ; Alcotest.test_case "signature digest stability" `Quick
      test_signature_digest_stability
  ; Alcotest.test_case "signature compatibility" `Quick test_signature_compatible
  ; Alcotest.test_case "signature missing port" `Quick test_signature_missing_port
  ; Alcotest.test_case "macro wrapper" `Quick test_macro_wrapper
  ; Alcotest.test_case "pack structure" `Quick test_pack_structure
  ; Alcotest.test_case "pack DRC clean" `Quick test_pack_drc_clean
  ; Alcotest.test_case "pack shares wrappers" `Quick test_pack_shares_wrappers
  ; Alcotest.test_case "pack + pad frame DRC clean" `Quick
      test_pack_framed_drc_clean
  ; Alcotest.test_case "pack rejects bad nets" `Quick test_pack_rejects_unknown
  ; Alcotest.test_case "modular detect" `Quick test_modular_detect
  ; Alcotest.test_case "modular compile" `Quick test_modular_compile
  ; Alcotest.test_case "modular rejects pla" `Quick test_modular_rejects_pla
  ; Alcotest.test_case "chip split errors" `Quick test_chip_split_errors
  ; Alcotest.test_case "resolve diagnostics" `Quick test_modular_resolve_diags
  ; Alcotest.test_case "module diagnostics" `Quick test_modular_module_diag
  ; Alcotest.test_case "j1/j4 determinism" `Quick test_modular_determinism
  ; Alcotest.test_case "incremental matrix" `Quick test_modular_incremental
  ; Alcotest.test_case "concurrent dedup" `Quick test_modular_concurrent_dedup
  ]
