(* LRU via an intrusive doubly-linked list threaded through the table's
   entries: head = most recent, tail = eviction candidate. *)

type 'a node =
  { nkey : string
  ; nvalue : 'a
  ; mutable prev : 'a node option  (* toward the head / more recent *)
  ; mutable next : 'a node option
  }

type stats =
  { entries : int
  ; capacity : int
  ; hits : int
  ; disk_hits : int
  ; misses : int
  ; evictions : int
  ; stale : int
  }

type 'a t =
  { name : string
  ; cap : int
  ; dir : string option
  ; tbl : (string, 'a node) Hashtbl.t
  ; lock : Mutex.t
  ; mutable head : 'a node option
  ; mutable tail : 'a node option
  ; mutable hits : int
  ; mutable disk_hits : int
  ; mutable misses : int
  ; mutable evictions : int
  ; mutable stale : int
  (* the "cache.<name>.<what>" counter names, built once per store:
     [note] runs on every lookup *)
  ; on_hit : string
  ; on_disk_hit : string
  ; on_miss : string
  ; on_eviction : string
  ; on_stale : string
  }

let digest s = Digest.to_hex (Digest.string s)

let create ?(capacity = 256) ?dir ~name () =
  (match dir with
  | Some d when not (Sys.file_exists d) -> (try Unix.mkdir d 0o755 with Unix.Unix_error _ -> ())
  | _ -> ());
  { name
  ; cap = max 1 capacity
  ; dir
  ; tbl = Hashtbl.create 64
  ; lock = Mutex.create ()
  ; head = None
  ; tail = None
  ; hits = 0
  ; disk_hits = 0
  ; misses = 0
  ; evictions = 0
  ; stale = 0
  ; on_hit = "cache." ^ name ^ ".hit"
  ; on_disk_hit = "cache." ^ name ^ ".disk_hit"
  ; on_miss = "cache." ^ name ^ ".miss"
  ; on_eviction = "cache." ^ name ^ ".eviction"
  ; on_stale = "cache." ^ name ^ ".stale"
  }

(* --- list surgery; caller holds the lock --- *)

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

(* returns how many entries were evicted so the caller can report them
   to Obs outside the lock *)
let insert t key value =
  if Hashtbl.mem t.tbl key then 0
  else begin
    let n = { nkey = key; nvalue = value; prev = None; next = None } in
    Hashtbl.replace t.tbl key n;
    push_front t n;
    let evicted = ref 0 in
    while Hashtbl.length t.tbl > t.cap do
      match t.tail with
      | Some last ->
        unlink t last;
        Hashtbl.remove t.tbl last.nkey;
        t.evictions <- t.evictions + 1;
        incr evicted
      | None -> assert false
    done;
    !evicted
  end

(* --- disk layer --- *)

(* Every entry starts with a magic string and a format version, so a
   directory written by an older build (or a torn/foreign file) reads
   back as a miss instead of handing Marshal garbage.  Bump
   [format_version] whenever the meaning or layout of cached artifacts
   changes. *)
let magic = "SCCCACHE"
let format_version = 2

(* Entries are sharded into per-prefix subdirectories so that a hot
   shared directory (many concurrent writers, e.g. under [scc serve])
   never concentrates every rename in one inode. *)
let shard_of key =
  if String.length key < 2 then "00"
  else
    String.init 2 (fun i ->
        match key.[i] with
        | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9') as c -> c
        | _ -> '_')

let ensure_dir d =
  if not (Sys.file_exists d) then
    try Unix.mkdir d 0o755 with Unix.Unix_error _ -> ()

let file_of t key =
  match t.dir with
  | None -> None
  | Some d ->
    Some (Filename.concat (Filename.concat d (shard_of key)) (t.name ^ "-" ^ key))

let locked t f = Mutex.protect t.lock f

let note counter n = if n > 0 then Sc_obs.Obs.count counter n

let disk_read t key =
  match file_of t key with
  | Some path when Sys.file_exists path -> (
    let read () =
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let m =
            try really_input_string ic (String.length magic)
            with End_of_file -> ""
          in
          if not (String.equal m magic) then `Stale
          else if (try input_binary_int ic with End_of_file -> -1)
                  <> format_version
          then `Stale
          else
            match Marshal.from_channel ic with
            | v -> `Value v
            | exception _ -> `Stale)
    in
    match read () with
    | `Value v -> Some v
    | `Stale ->
      (* written by another build, or corrupt: a miss, never garbage *)
      locked t (fun () -> t.stale <- t.stale + 1);
      note t.on_stale 1;
      None
    | exception _ -> None)
  | _ -> None

(* tmp names must be unique per writer: two processes (or domains)
   racing to persist the same key must not clobber each other's
   in-flight file before the atomic rename *)
let tmp_seq = Atomic.make 0

let disk_write t key value =
  match file_of t key with
  | None -> ()
  | Some path -> (
    try
      (match t.dir with Some d -> ensure_dir d | None -> ());
      ensure_dir (Filename.dirname path);
      let tmp =
        Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
          (Atomic.fetch_and_add tmp_seq 1)
      in
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc magic;
          output_binary_int oc format_version;
          Marshal.to_channel oc value []);
      Sys.rename tmp path
    with _ -> ())

(* --- lookup / insert --- *)

let find t key =
  let hit =
    locked t (fun () ->
        match Hashtbl.find_opt t.tbl key with
        | Some n ->
          t.hits <- t.hits + 1;
          unlink t n;
          push_front t n;
          Some n.nvalue
        | None -> None)
  in
  (match hit with Some _ -> note t.on_hit 1 | None -> ());
  hit

let lookup t key =
  match find t key with
  | Some v -> `Memory v
  | None -> (
    match disk_read t key with
    | Some v ->
      let evicted =
        locked t (fun () ->
            t.disk_hits <- t.disk_hits + 1;
            insert t key v)
      in
      note t.on_disk_hit 1;
      note t.on_eviction evicted;
      `Disk v
    | None -> `Absent)

let add t key v =
  let evicted =
    locked t (fun () ->
        t.misses <- t.misses + 1;
        insert t key v)
  in
  disk_write t key v;
  note t.on_miss 1;
  note t.on_eviction evicted

let stats t =
  locked t (fun () ->
      { entries = Hashtbl.length t.tbl
      ; capacity = t.cap
      ; hits = t.hits
      ; disk_hits = t.disk_hits
      ; misses = t.misses
      ; evictions = t.evictions
      ; stale = t.stale
      })

let pp_stats ppf s =
  Format.fprintf ppf
    "%d/%d entries, %d hits (%d from disk), %d misses, %d evictions%s"
    s.entries s.capacity (s.hits + s.disk_hits) s.disk_hits s.misses
    s.evictions
    (if s.stale > 0 then Printf.sprintf ", %d stale" s.stale else "")
