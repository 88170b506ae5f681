(* The export census: every value a lib/**/*.mli exports must have a
   production caller outside its own module, or a line in an allow list
   naming it with a reason.

     census.exe [--tests TESTS_ALLOW TESTDIR] ALLOW LIBDIR DIR...

   LIBDIR holds one directory per library (its dune file names the
   library); every .ml under LIBDIR and the DIRs is a production caller,
   and with [--tests] every .ml directly in TESTDIR is a test caller.
   A caller writes the value qualified ([Rect.area], [Sc_geom.Rect.area],
   [R.area] after [module R = Sc_geom.Rect]) or bare inside the module's
   scope ([open Rect], [let open Rect in], [Rect.( ... )], [include
   Rect]).  Comments and string literals are not code.

   A value with no caller at all needs a line [Library.Module.value
   reason] in ALLOW; a value only tests call needs a line
   [Library.Module.value test_file.ml reason] in TESTS_ALLOW, whose test
   module calls it.  A line whose value has gained a (production)
   caller, no longer exists, or names a test that does not call it is
   an error too, so the lists stay as short as the truth.  Exits 1 with
   one line per finding. *)

(* ---------------------------------------------------------------- *)
(* Lexing: long identifiers and the punctuation after them            *)
(* ---------------------------------------------------------------- *)

type token =
  | Id of string list  (** [A.B.c] as ["A"; "B"; "c"] *)
  | Local_open of string list  (** [A.B.( ... )]: the path opened *)
  | Sym of string  (** any other non-blank character, or an operator *)

let is_ident c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

let is_start c = match c with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false
let is_upper s = s <> "" && match s.[0] with 'A' .. 'Z' -> true | _ -> false

let is_op c = String.contains "!$%&*+-./:<=>?@^|~#" c

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* the tokens of [src] with their line numbers *)
let tokens src =
  let n = String.length src in
  let line = ref 1 in
  let acc = ref [] in
  let emit t = acc := (t, !line) :: !acc in
  let newline_in i j =
    for k = i to j - 1 do
      if src.[k] = '\n' then incr line
    done
  in
  (* index just past the string literal opening at [i] *)
  let rec skip_string i =
    if i >= n then n
    else
      match src.[i] with
      | '"' -> i + 1
      | '\\' -> skip_string (i + 2)
      | _ -> skip_string (i + 1)
  in
  (* [{id|...|id}] opening at [i], if it is one: index just past it *)
  let quoted_string i =
    let j = ref (i + 1) in
    while !j < n && match src.[!j] with 'a' .. 'z' | '_' -> true | _ -> false do
      incr j
    done;
    if !j < n && src.[!j] = '|' then begin
      let close = "|" ^ String.sub src (i + 1) (!j - i - 1) ^ "}" in
      let m = String.length close in
      let k = ref (!j + 1) in
      while !k + m <= n && String.sub src !k m <> close do
        incr k
      done;
      Some (min n (!k + m))
    end
    else None
  in
  let rec skip_comment depth i =
    if i >= n then n
    else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then
      skip_comment (depth + 1) (i + 2)
    else if i + 1 < n && src.[i] = '*' && src.[i + 1] = ')' then
      if depth = 1 then i + 2 else skip_comment (depth - 1) (i + 2)
    else if src.[i] = '"' then skip_comment depth (skip_string (i + 1))
    else skip_comment depth (i + 1)
  in
  let rec go i =
    if i < n then
      let c = src.[i] in
      if c = '(' && i + 1 < n && src.[i + 1] = '*' then begin
        let j = skip_comment 1 (i + 2) in
        newline_in i j;
        go j
      end
      else if c = '"' then begin
        let j = skip_string (i + 1) in
        newline_in i j;
        go j
      end
      else if c = '{' then
        match quoted_string i with
        | Some j ->
          newline_in i j;
          go j
        | None ->
          emit (Sym "{");
          go (i + 1)
      else if c = '\'' then
        (* a character literal; otherwise a type variable's quote *)
        if i + 2 < n && src.[i + 1] <> '\\' && src.[i + 2] = '\'' then
          go (i + 3)
        else if i + 1 < n && src.[i + 1] = '\\' then begin
          let j = ref (i + 2) in
          while !j < n && src.[!j] <> '\'' do
            incr j
          done;
          go (!j + 1)
        end
        else go (i + 1)
      else if is_start c then begin
        (* a long identifier: capitalised segments joined by dots *)
        let rec segments i acc =
          let j = ref i in
          while !j < n && is_ident src.[!j] do
            incr j
          done;
          let seg = String.sub src i (!j - i) in
          let acc = seg :: acc in
          if is_upper seg && !j + 1 < n && src.[!j] = '.' then
            if is_start src.[!j + 1] then segments (!j + 1) acc
            else if String.contains "({[" src.[!j + 1] then begin
              emit (Local_open (List.rev acc));
              !j + 1
            end
            else begin
              emit (Id (List.rev acc));
              !j
            end
          else begin
            emit (Id (List.rev acc));
            !j
          end
        in
        go (segments i [])
      end
      else if c = '\n' then begin
        incr line;
        go (i + 1)
      end
      else if c = ' ' || c = '\t' || c = '\r' then go (i + 1)
      else if is_op c then begin
        let j = ref i in
        while !j < n && is_op src.[!j] do
          incr j
        done;
        emit (Sym (String.sub src i (!j - i)));
        go !j
      end
      else begin
        emit (Sym (String.make 1 c));
        go (i + 1)
      end
  in
  go 0;
  List.rev !acc

(* ---------------------------------------------------------------- *)
(* The exports                                                        *)
(* ---------------------------------------------------------------- *)

type export =
  { lib : string  (** [Sc_geom] *)
  ; path : string list  (** [["Rect"]], or [["Obs"; "Recorder"]] *)
  ; name : string  (** [area], or an operator such as [&&&] *)
  ; file : string
  ; line : int
  }

let key e = String.concat "." ((e.lib :: e.path) @ [ e.name ])
let last l = List.nth l (List.length l - 1)

(* the vals of one .mli, with the module path each sits in; a val inside
   a module type ([module type S = sig ... end]) is no export *)
let exports ~lib ~file =
  let modname =
    String.capitalize_ascii Filename.(remove_extension (basename file))
  in
  let rec go stack toks acc =
    match toks with
    | [] -> List.rev acc
    | (Id [ "module" ], _) :: (Id [ m ], _) :: (Sym ":", _) :: (Id [ "sig" ], _)
      :: rest ->
      go (Some m :: stack) rest acc
    | (Id [ "sig" ], _) :: rest -> go (None :: stack) rest acc
    | (Id [ "end" ], _) :: rest ->
      go (match stack with [] -> [] | _ :: s -> s) rest acc
    | (Id [ "val" ], line) :: rest when List.for_all Option.is_some stack ->
      let name =
        match rest with
        | (Id [ v ], _) :: _ -> Some v
        | (Sym "(", _) :: (Sym op, _) :: (Sym ")", _) :: _ -> Some op
        | _ -> None
      in
      let acc =
        match name with
        | Some name ->
          let path = modname :: List.rev_map Option.get stack in
          { lib; path; name; file; line } :: acc
        | None -> acc
      in
      go stack rest acc
    | _ :: rest -> go stack rest acc
  in
  go [] (tokens (read_file file)) []

(* ---------------------------------------------------------------- *)
(* The callers                                                        *)
(* ---------------------------------------------------------------- *)

(* what one source file can reach: qualified uses (qualifier, name,
   library prefix if written), the modules it opens, its bare names *)
type uses =
  { file : string
  ; dir : string
  ; qualified : (string * string * string option) list
  ; opened : string list
  ; bare : (string, unit) Hashtbl.t
  }

let uses_of file =
  let toks = List.map fst (tokens (read_file file)) in
  let aliases = Hashtbl.create 8 in
  let rec scan_aliases = function
    | Id [ "module" ] :: Id [ x ] :: Sym "=" :: Id path :: rest
      when is_upper (last path) ->
      Hashtbl.replace aliases x (last path);
      scan_aliases rest
    | _ :: rest -> scan_aliases rest
    | [] -> ()
  in
  scan_aliases toks;
  let resolve q = Option.value (Hashtbl.find_opt aliases q) ~default:q in
  let lib_of segs =
    List.find_opt
      (fun s -> String.length s > 3 && String.sub s 0 3 = "Sc_")
      segs
  in
  let bare = Hashtbl.create 256 in
  let qualified = ref [] and opened = ref [] in
  let rec walk = function
    | [] -> ()
    | Id [ ("open" | "include") ] :: Id path :: rest ->
      opened := resolve (last path) :: !opened;
      walk (Id path :: rest)
    | Id [ "open" ] :: Sym "!" :: Id path :: rest ->
      opened := resolve (last path) :: !opened;
      walk (Id path :: rest)
    | Local_open path :: rest ->
      opened := resolve (last path) :: !opened;
      walk rest
    | Id [ v ] :: rest ->
      Hashtbl.replace bare v ();
      walk rest
    | Id segs :: rest ->
      let rev = List.rev segs in
      (match rev with
      | name :: q :: _ when is_upper q ->
        qualified := (resolve q, name, lib_of segs) :: !qualified
      | _ -> ());
      walk rest
    | Sym s :: rest ->
      Hashtbl.replace bare s ();
      walk rest
  in
  walk toks;
  { file
  ; dir = Filename.dirname file
  ; qualified = !qualified
  ; opened = !opened
  ; bare
  }

(* does [u] call [e]?  [siblings dir] lists the modules of a library
   directory, so [Ast.x] inside lib/cif means Sc_cif's Ast only *)
let calls ~siblings ~own_dir (u : uses) (e : export) =
  let q = last e.path in
  let here =
    (* a qualifier without a library prefix means a sibling if the
       caller's directory has one of that name *)
    match siblings u.dir with
    | Some mods when List.mem q mods -> u.dir = own_dir
    | _ -> true
  in
  let libname = Some e.lib in
  List.exists
    (fun (q', name, lib) ->
      q' = q && name = e.name
      && (match lib with Some _ -> lib = libname | None -> here))
    u.qualified
  || (List.mem q u.opened && here && Hashtbl.mem u.bare e.name)

(* ---------------------------------------------------------------- *)
(* Walking the tree                                                   *)
(* ---------------------------------------------------------------- *)

let rec files dir ext =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if f <> "" && (f.[0] = '.' || f = "_build") then []
         else if Sys.is_directory p then files p ext
         else if Filename.check_suffix f ext then [ p ]
         else [])

(* the library a lib/ directory builds, from its dune file *)
let library_of dir =
  let dune = Filename.concat dir "dune" in
  if not (Sys.file_exists dune) then None
  else
    let rec find = function
      | Sym "(" :: Id [ "name" ] :: Id [ n ] :: _ -> Some (String.capitalize_ascii n)
      | _ :: rest -> find rest
      | [] -> None
    in
    find (List.map fst (tokens (read_file dune)))

(* the lines of an allow list that are not blank or comments, split at
   blanks: (line number, fields) *)
let read_allow path =
  String.split_on_char '\n' (read_file path)
  |> List.mapi (fun i l -> (i + 1, String.trim l))
  |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
  |> List.map (fun (i, l) ->
         (i, String.split_on_char ' ' l |> List.filter (( <> ) "")))

let () =
  let tests, args =
    match List.tl (Array.to_list Sys.argv) with
    | "--tests" :: tests_allow :: testdir :: args ->
      (Some (tests_allow, testdir), args)
    | "--tests" :: _ -> (None, [])
    | args -> (None, args)
  in
  match args with
  | allow_file :: libdir :: dirs ->
    let libdirs =
      Sys.readdir libdir |> Array.to_list |> List.sort compare
      |> List.map (Filename.concat libdir)
      |> List.filter Sys.is_directory
    in
    let modules_of dir =
      files dir ".ml"
      |> List.filter (fun f -> Filename.dirname f = dir)
      |> List.map (fun f ->
             String.capitalize_ascii Filename.(remove_extension (basename f)))
    in
    let siblings =
      let tbl = List.map (fun d -> (d, modules_of d)) libdirs in
      fun dir -> List.assoc_opt dir tbl
    in
    let exports =
      List.concat_map
        (fun dir ->
          match library_of dir with
          | None -> []
          | Some lib ->
            List.concat_map (fun file -> exports ~lib ~file) (files dir ".mli"))
        libdirs
    in
    let production =
      List.map uses_of (List.concat_map (fun d -> files d ".ml") (libdir :: dirs))
    in
    (* the test modules: the .ml files directly in TESTDIR *)
    let tests_of =
      match tests with
      | None -> []
      | Some (_, testdir) ->
        List.map uses_of
          (List.filter
             (fun f -> Filename.dirname f = testdir)
             (files testdir ".ml"))
    in
    let callers within (e : export) =
      let own = Filename.remove_extension e.file ^ ".ml" in
      let own_dir = Filename.dirname e.file in
      List.filter
        (fun (u : uses) -> u.file <> own && calls ~siblings ~own_dir u e)
        within
    in
    (* the exports no production code calls, with the tests that do *)
    let unused =
      List.filter_map
        (fun e ->
          if callers production e <> [] then None
          else
            Some
              ( e
              , List.map
                  (fun (u : uses) -> Filename.basename u.file)
                  (callers tests_of e) ))
        exports
    in
    let errors = ref 0 in
    let report fmt =
      incr errors;
      Printf.printf (fmt ^^ "\n")
    in
    let allow = read_allow allow_file in
    let tests_allow_file, tests_allow =
      match tests with None -> ("", []) | Some (f, _) -> (f, read_allow f)
    in
    let listed lines e =
      List.exists (function _, k :: _ -> k = key e | _ -> false) lines
    in
    let find k = List.find_opt (fun (e, _) -> key e = k) unused in
    List.iter
      (fun ((e : export), tested) ->
        if tested = [] && not (listed allow e) then
          report "%s:%d: %s is exported but has no caller outside its module \
                  (delete it, drop it from the .mli, or list it in %s with a reason)"
            e.file e.line (key e) allow_file
        else if tested <> [] && not (listed tests_allow e) then
          report "%s:%d: %s is exported but only tests call it (%s): delete it, \
                  drop it from the .mli, or list it in %s with a test and a reason"
            e.file e.line (key e) (String.concat ", " tested) tests_allow_file)
      unused;
    let exists k = List.exists (fun e -> key e = k) exports in
    List.iter
      (fun (line, fields) ->
        match fields with
        | [ k ] -> report "%s:%d: %s is listed without a reason" allow_file line k
        | k :: _ ->
          if not (exists k) then
            report "%s:%d: %s is listed but no .mli exports it" allow_file line k
          else if
            match find k with Some (_, tested) -> tested <> [] | None -> true
          then
            report "%s:%d: %s is listed but has a caller now: drop the line"
              allow_file line k
        | [] -> ())
      allow;
    List.iter
      (fun (line, fields) ->
        let say fmt = report ("%s:%d: " ^^ fmt) tests_allow_file line in
        match fields with
        | k :: test :: reason ->
          if reason = [] then say "%s is listed without a reason" k
          else if not (exists k) then say "%s is listed but no .mli exports it" k
          else (
            match find k with
            | None -> say "%s is listed but production code calls it now: drop the line" k
            | Some (_, tested) ->
              if not (List.mem test tested) then
                say "%s is listed for %s, which does not call it" k test)
        | _ -> say "expected: Library.Module.value test_file.ml reason")
      tests_allow;
    if !errors > 0 then exit 1
  | _ ->
    prerr_endline "usage: census [--tests TESTS_ALLOW TESTDIR] ALLOW LIBDIR DIR...";
    exit 2
