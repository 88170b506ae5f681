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
  ; disk_evictions : int
  ; stale : int
  }

type 'a t =
  { name : string
  ; cap : int
  ; dir : string option
  ; disk_cap : int option
  ; disk_max_bytes : int option
  ; tbl : (string, 'a node) Hashtbl.t
  ; lock : Mutex.t
  ; mutable head : 'a node option
  ; mutable tail : 'a node option
  ; mutable hits : int
  ; mutable disk_hits : int
  ; mutable misses : int
  ; mutable evictions : int
  ; mutable disk_evictions : int
  ; mutable stale : int
  }

let digest s = Digest.to_hex (Digest.string s)

let create ?(capacity = 256) ?disk_capacity ?disk_bytes ?dir ~name () =
  (match dir with
  | Some d when not (Sys.file_exists d) -> (try Unix.mkdir d 0o755 with Unix.Unix_error _ -> ())
  | _ -> ());
  { name
  ; cap = max 1 capacity
  ; dir
  ; disk_cap = Option.map (max 1) disk_capacity
  ; disk_max_bytes = Option.map (max 1) disk_bytes
  ; tbl = Hashtbl.create 64
  ; lock = Mutex.create ()
  ; head = None
  ; tail = None
  ; hits = 0
  ; disk_hits = 0
  ; misses = 0
  ; evictions = 0
  ; disk_evictions = 0
  ; stale = 0
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
   never concentrates every rename in one inode, and listing stays
   cheap as the store grows. *)
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

let note ?(n = 1) t what =
  if n > 0 then Sc_obs.Obs.count ("cache." ^ t.name ^ "." ^ what) n

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
    | `Value v ->
      (* refresh recency: the disk tier is LRU by mtime, so a read must
         count as a use or hot entries get evicted first *)
      (try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ());
      Some v
    | `Stale ->
      (* written by another build, or corrupt: a miss, never garbage *)
      locked t (fun () -> t.stale <- t.stale + 1);
      note t "stale";
      None
    | exception _ -> None)
  | _ -> None

(* tmp names must be unique per writer: two processes (or domains)
   racing to persist the same key must not clobber each other's
   in-flight file before the atomic rename *)
let tmp_seq = Atomic.make 0

let rec disk_write t key value =
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
      Sys.rename tmp path;
      enforce_disk_bound t
    with _ -> ())

(* Walk this store's files across every shard subdirectory.  Other
   stores sharing the directory are invisible (the [<name>-] prefix
   namespaces them) and in-flight [.tmp.] files are skipped. *)
and disk_files t =
  match t.dir with
  | None -> []
  | Some d ->
    let prefix = t.name ^ "-" in
    let plen = String.length prefix in
    let is_tmp f =
      (* "<prefix><digest>.tmp.<pid>.<seq>" — an in-flight write *)
      let rec scan i =
        i + 4 <= String.length f
        && (String.sub f i 4 = ".tmp" || scan (i + 1))
      in
      scan 0
    in
    let shards = try Sys.readdir d with Sys_error _ -> [||] in
    Array.fold_left
      (fun acc shard ->
        let sdir = Filename.concat d shard in
        if not (try Sys.is_directory sdir with Sys_error _ -> false) then acc
        else
          let files = try Sys.readdir sdir with Sys_error _ -> [||] in
          Array.fold_left
            (fun acc f ->
              if
                String.length f > plen
                && String.sub f 0 plen = prefix
                && not (is_tmp f)
              then begin
                let path = Filename.concat sdir f in
                match Unix.stat path with
                | { Unix.st_mtime; st_size; _ } ->
                  (path, st_mtime, st_size) :: acc
                | exception Unix.Unix_error _ -> acc
              end
              else acc)
            acc files)
      [] shards

(* LRU across shards: when either disk bound is exceeded, delete
   oldest-mtime entries until both hold again.  Runs only on stores
   created with a bound, after each persisted write — unbounded stores
   (the default) never pay the directory scan. *)
and enforce_disk_bound t =
  match (t.disk_cap, t.disk_max_bytes) with
  | None, None -> ()
  | cap, max_bytes ->
    let files =
      List.sort (fun (_, a, _) (_, b, _) -> compare a b) (disk_files t)
    in
    let count = ref (List.length files) in
    let bytes = ref (List.fold_left (fun a (_, _, s) -> a + s) 0 files) in
    let over () =
      (match cap with Some c -> !count > c | None -> false)
      || match max_bytes with Some b -> !bytes > b | None -> false
    in
    let evicted = ref 0 in
    List.iter
      (fun (path, _, size) ->
        if over () then begin
          (try Sys.remove path with Sys_error _ -> ());
          decr count;
          bytes := !bytes - size;
          incr evicted
        end)
      files;
    if !evicted > 0 then begin
      locked t (fun () -> t.disk_evictions <- t.disk_evictions + !evicted);
      note ~n:!evicted t "disk_evictions"
    end

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
  (match hit with Some _ -> note t "hit" | None -> ());
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
      note t "disk_hit";
      note ~n:evicted t "eviction";
      `Disk v
    | None -> `Absent)

let add t key v =
  let evicted =
    locked t (fun () ->
        t.misses <- t.misses + 1;
        insert t key v)
  in
  disk_write t key v;
  note t "miss";
  note ~n:evicted t "eviction"

let find_or_add t key compute =
  match lookup t key with
  | `Memory v | `Disk v -> v
  | `Absent ->
    (* compute outside the lock: a racing domain at worst repeats the
       work and the second insert is a no-op *)
    let v = compute () in
    add t key v;
    v

let stats t =
  locked t (fun () ->
      { entries = Hashtbl.length t.tbl
      ; capacity = t.cap
      ; hits = t.hits
      ; disk_hits = t.disk_hits
      ; misses = t.misses
      ; evictions = t.evictions
      ; disk_evictions = t.disk_evictions
      ; stale = t.stale
      })

let pp_stats ppf s =
  Format.fprintf ppf
    "%d/%d entries, %d hits (%d from disk), %d misses, %d evictions%s%s"
    s.entries s.capacity (s.hits + s.disk_hits) s.disk_hits s.misses
    s.evictions
    (if s.disk_evictions > 0 then
       Printf.sprintf ", %d disk evictions" s.disk_evictions
     else "")
    (if s.stale > 0 then Printf.sprintf ", %d stale" s.stale else "")
