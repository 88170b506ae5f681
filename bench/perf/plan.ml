(* What each workload sends, generated from the seed.

   A workload is a set of distinct compile requests ([specs]) and a
   request sequence over them ([order], cycled if a run outlasts it).
   The seed decides which designs the generator emits, which request
   comes when, and which variants the edits pick; the shape of every
   workload — its classes, their shares and the sizes of the generated
   designs — is fixed, so two seeds load the compiler alike. *)

type spec =
  { id : string  (** identity: everything that can change the output *)
  ; design : string  (** display name *)
  ; source : string
  ; style : string  (** gates | pla | verilog *)
  ; restarts : int
  ; certify : bool
  ; builtin : string option  (** compiled by name: [scc isp NAME] *)
  ; baseline : string option  (** bench/baselines/NAME.json holds its QoR *)
  }

type mode =
  | Cold  (** single-shot processes, no stage cache *)
  | Warm  (** single-shot processes over a primed disk stage cache *)
  | Daemon  (** requests to one [scc serve] child over two connections *)

type t =
  { name : string
  ; mode : mode
  ; specs : spec array
  ; order : int array
  ; prime : int list  (** compiled once during setup *)
  ; replay : int list  (** compiled in-process by the traced run *)
  }

let names = [ "cold_pdp8"; "cold_mix"; "warm_edit"; "daemon" ]

let baselines = [ "counter"; "traffic"; "alu4"; "pdp8"; "system"; "counter12" ]

let builtin ?(restarts = 0) ?(certify = false) ?(style = "gates") name =
  let source =
    match Sc_core.Designs.builtin name with
    | Some s -> s
    | None -> invalid_arg ("not a builtin design: " ^ name)
  in
  { id =
      Printf.sprintf "%s%s%s%s" name
        (if style = "pla" then "-pla" else "")
        (if restarts > 0 then Printf.sprintf "-r%d" restarts else "")
        (if certify then "-certify" else "")
  ; design = name
  ; source
  ; style
  ; restarts
  ; certify
  ; builtin = Some name
  ; baseline =
      (if restarts = 0 && style = "gates" && List.mem name baselines then
         Some name
       else None)
  }

let counter12 ~root =
  { id = "counter12"
  ; design = "counter12"
  ; source = Proc.read_file (Filename.concat root "examples/counter12.v")
  ; style = "verilog"
  ; restarts = 0
  ; certify = false
  ; builtin = None
  ; baseline = Some "counter12"
  }

let of_source ?(restarts = 0) ~id ~design source =
  { id = (if restarts > 0 then Printf.sprintf "%s-r%d" id restarts else id)
  ; design
  ; source
  ; style = "gates"
  ; restarts
  ; certify = false
  ; builtin = None
  ; baseline = None
  }

let generated ?restarts (d : Gen.design) =
  of_source ?restarts ~id:d.Gen.name ~design:d.Gen.name d.Gen.source

(* a few thousand flat boxes each: 10-60 ms cold *)
let small_params =
  List.map
    (fun (width, regs, ops) -> { Gen.width; regs; ops })
    [ (3, 1, 2); (3, 1, 3); (3, 2, 2); (3, 2, 4); (4, 1, 2); (4, 1, 3)
    ; (4, 1, 4); (4, 2, 2); (4, 2, 3); (3, 1, 4); (4, 2, 4); (3, 2, 3)
    ]

let gen_pool ~seed ~base params =
  List.mapi (fun i p -> Gen.make ~seed ~index:(base + i) p) params

let all specs = List.init (Array.length specs) Fun.id

(* [blocks rng ~n block] — [n] seeded shuffles of [block], end to end:
   every block holds the same requests, so the mix is the same for
   every seed and every run length *)
let blocks rng ~n block =
  Array.concat (List.init n (fun _ -> Gen.shuffle rng (Array.of_list block)))

(* specs numbered in order of first use *)
type registry =
  { ids : (string, int) Hashtbl.t
  ; mutable added : spec list
  }

let registry () = { ids = Hashtbl.create 64; added = [] }

let add r s =
  match Hashtbl.find_opt r.ids s.id with
  | Some i -> i
  | None ->
    let i = Hashtbl.length r.ids in
    Hashtbl.replace r.ids s.id i;
    r.added <- s :: r.added;
    i

let specs_of r = Array.of_list (List.rev r.added)

let cold_pdp8 () =
  { name = "cold_pdp8"
  ; mode = Cold
  ; specs = [| builtin "pdp8" |]
  ; order = [| 0 |]
  ; prime = [ 0 ]
  ; replay = [ 0 ]
  }

(* every block: each builtin variant once and each of the twelve
   generated designs once *)
let cold_mix ~root ~seed rng =
  let specs =
    Array.of_list
      ([ builtin "counter"; builtin "traffic"; builtin "alu4"; builtin "system"
       ; builtin ~style:"pla" "traffic"; counter12 ~root
       ; builtin ~certify:true "counter"; builtin ~certify:true "alu4"
       ; builtin ~certify:true "traffic"
       ]
      @ List.map generated (gen_pool ~seed ~base:0 small_params))
  in
  { name = "cold_mix"
  ; mode = Cold
  ; specs
  ; order = blocks rng ~n:200 (all specs)
  ; prime = all specs
  ; replay = all specs
  }

(* the mixer module's one behaviour line, edited *)
let mixer_edit expr =
  let src = Sc_core.Designs.system_src in
  let line = "y := a ^ b;" in
  let rec find i =
    if String.sub src i (String.length line) = line then i else find (i + 1)
  in
  let i = find 0 in
  String.sub src 0 i ^ "y := " ^ expr ^ ";"
  ^ String.sub src (i + String.length line)
      (String.length src - i - String.length line)

(* 8-bit designs: 256 compare constants each, so constant edits never
   run out *)
let warm_params =
  List.map
    (fun (width, regs, ops) -> { Gen.width; regs; ops })
    [ (8, 1, 2); (8, 1, 3); (7, 1, 2); (8, 1, 4) ]

(* Every block: each base design rebuilt once, then two edits, cycling
   through three kinds:
   - a placement edit, --restarts 1..3 on a small builtin (15 variants,
     so they recur: the first time reruns place..measure, later all hit);
   - a constant edit of a generated design (misses every pass);
   - an operator edit of system's mixer module (reruns that module and
     the chip assembly).
   Constant and operator edits are never repeated within a run, so 2 in
   every 3 edits miss. *)
let warm_edit ~root ~seed rng =
  let r = registry () in
  let gens = gen_pool ~seed ~base:50 warm_params in
  let base =
    List.map (add r)
      ([ builtin "pdp8"; builtin "counter"; builtin "traffic"; builtin "alu4"
       ; builtin "gray"; builtin "seqdet"; builtin "system"; counter12 ~root
       ]
      @ List.map generated gens)
  in
  let placement =
    Array.of_list
      (List.concat_map
         (fun d -> List.map (fun k -> builtin ~restarts:k d) [ 1; 2; 3 ])
         [ "counter"; "traffic"; "alu4"; "gray"; "seqdet" ])
  in
  let constants =
    (* per design, its constants in seeded order, without the original *)
    let queues =
      List.map
        (fun (d : Gen.design) ->
          let cs =
            Gen.shuffle rng (Array.init (1 lsl d.Gen.params.Gen.width) Fun.id)
          in
          let q = Queue.create () in
          Array.iter
            (fun c ->
              let src = Gen.edit_constant d c in
              if src <> d.Gen.source then Queue.add (d, c, src) q)
            cs;
          q)
        gens
      |> Array.of_list
    in
    let k = ref 0 in
    fun () ->
      let d, c, src = Queue.pop queues.(!k mod Array.length queues) in
      incr k;
      of_source ~id:(Printf.sprintf "%s-c%d" d.Gen.name c) ~design:d.Gen.name src
  in
  let mixers =
    let variants =
      Gen.shuffle rng
        (Array.of_list
           (List.concat_map
              (fun op ->
                List.concat
                  (List.init 16 (fun c1 ->
                       List.init 16 (fun c2 -> (op, c1, c2)))))
              [ "&"; "|"; "+"; "-" ]))
    in
    let k = ref 0 in
    fun () ->
      let op, c1, c2 = variants.(!k) in
      incr k;
      of_source
        ~id:(Printf.sprintf "system-mix%d" !k)
        ~design:"system"
        (mixer_edit (Printf.sprintf "((a %s b) ^ %d) + %d" op c1 c2))
  in
  let edits = ref 0 in
  let edit () =
    incr edits;
    match !edits mod 3 with
    | 1 -> add r placement.(Random.State.int rng (Array.length placement))
    | 2 -> add r (constants ())
    | _ -> add r (mixers ())
  in
  (* 200 blocks of 14: 12 rebuilds, 2 edits (14% edits) *)
  let order =
    Array.concat
      (List.init 200 (fun _ ->
           let e1 = edit () in
           let e2 = edit () in
           Gen.shuffle rng (Array.of_list (base @ [ e1; e2 ]))))
  in
  let specs = specs_of r in
  let first kind =
    let rec go i =
      let s = specs.(order.(i)) in
      if (not (List.mem order.(i) base)) && kind s then order.(i) else go (i + 1)
    in
    go 0
  in
  { name = "warm_edit"
  ; mode = Warm
  ; specs
  ; order
  ; prime = base
  ; replay =
      base
      @ [ first (fun s -> s.restarts > 0)
        ; first (fun s -> s.design = "system")
        ; first (fun s -> s.restarts = 0 && s.design <> "system")
        ]
  }

(* Zipf(s) over ranks 1..n, as a cumulative table *)
let zipf_cdf ~s n =
  let w = Array.init n (fun r -> 1. /. (float_of_int (r + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw cdf rng =
  let u = Random.State.float rng 1. in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) < u then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length cdf - 1)

let daemon_params =
  List.map
    (fun (width, regs, ops) -> { Gen.width; regs; ops })
    [ (3, 1, 2); (3, 1, 3); (4, 1, 2); (3, 1, 4) ]

(* 400 distinct specs by popularity rank: the builtins first, two pdp8
   placement variants, generated designs (each in four restart
   variants) everywhere else.  Which kind of spec holds a rank, and the
   shape of each generated design, are the same for every seed.  The
   set-up compiles every spec once, least popular first, so the timed
   phase starts in the steady state: the memory store (256 entries per
   pass) holds the popular specs and the tail is served from disk. *)
let daemon ~root ~seed rng =
  let builtins =
    [ builtin "counter"; builtin "traffic"; builtin "alu4"; builtin "system"
    ; builtin "gray"; builtin "seqdet"; counter12 ~root
    ; builtin ~style:"pla" "traffic"
    ]
  in
  let pdp8_ranks = [ (8, 0); (20, 1) ] in
  let n = 400 in
  let ngen = n - List.length builtins - List.length pdp8_ranks in
  let designs =
    gen_pool ~seed ~base:100
      (List.init ((ngen + 3) / 4) (fun i ->
           List.nth daemon_params (i mod List.length daemon_params)))
    |> Array.of_list
  in
  let next_gen = ref 0 in
  let specs =
    Array.init n (fun rank ->
        if rank < List.length builtins then List.nth builtins rank
        else
          match List.assoc_opt rank pdp8_ranks with
          | Some restarts -> builtin ~restarts "pdp8"
          | None ->
            let j = !next_gen in
            incr next_gen;
            generated ~restarts:(j mod 4) designs.(j / 4))
  in
  let cdf = zipf_cdf ~s:1.1 n in
  { name = "daemon"
  ; mode = Daemon
  ; specs
  ; order = Array.init 40000 (fun _ -> zipf_draw cdf rng)
  ; prime = List.rev (all specs)
  ; replay = List.init 20 Fun.id
  }

(* [make ~root ~seed name] — generate a workload; every generated
   design is parsed, checked and simulated against the interpreter
   here (Gen.make), so setup aborts on a bad input *)
let make ~root ~seed name =
  let rng = Random.State.make [| seed; Hashtbl.hash name |] in
  match name with
  | "cold_pdp8" -> cold_pdp8 ()
  | "cold_mix" -> cold_mix ~root ~seed rng
  | "warm_edit" -> warm_edit ~root ~seed rng
  | "daemon" -> daemon ~root ~seed rng
  | w -> invalid_arg ("unknown workload " ^ w)
