(* A scope is an immutable list of bindings, innermost first.  Each
   execution context's scope sits in a cell of one table keyed by
   (domain id, thread id) — there exactly while the scope is non-empty,
   so finished threads and domains leave nothing behind — and each
   domain caches the cell it used last, so a lookup takes no lock
   unless threads of one domain take turns. *)

type binding = ..

type 'a key =
  { id : int
  ; inj : 'a -> binding
  ; prj : binding -> 'a
  ; default : 'a
  }

type t = (int * binding) list

type cell =
  { tid : int
  ; mutable cur : t
  }

let ids = Atomic.make 0

let key (type a) (default : a) : a key =
  let module M = struct
    type binding += B of a
  end in
  { id = Atomic.fetch_and_add ids 1
  ; inj = (fun v -> M.B v)
  ; prj = (function M.B v -> v | _ -> default)
  ; default
  }

let context () = ((Domain.self () :> int), Thread.id (Thread.self ()))
let cells : (int * int, cell) Hashtbl.t = Hashtbl.create 16
let lock = Mutex.create ()
let last = Domain.DLS.new_key (fun () -> { tid = -1; cur = [] })

let cell () =
  let tid = Thread.id (Thread.self ()) in
  let c = Domain.DLS.get last in
  if c.tid = tid then c
  else begin
    let c =
      Mutex.protect lock (fun () ->
          match Hashtbl.find_opt cells (context ()) with
          | Some c -> c
          | None -> { tid; cur = [] })
    in
    Domain.DLS.set last c;
    c
  end

let rec lookup k = function
  | [] -> k.default
  | (id, b) :: rest -> if id = k.id then k.prj b else lookup k rest

let get k = lookup k (cell ()).cur

(* only the cell's own thread calls this *)
let set c s =
  (match (c.cur, s) with
  | [], _ :: _ ->
    Mutex.protect lock (fun () -> Hashtbl.replace cells (context ()) c)
  | _ :: _, [] -> Mutex.protect lock (fun () -> Hashtbl.remove cells (context ()))
  | _ -> ());
  c.cur <- s

let within s f =
  let c = cell () in
  let prev = c.cur in
  if prev == s then f ()
  else begin
    set c s;
    Fun.protect ~finally:(fun () -> set c prev) f
  end

let with_ k v f = within ((k.id, k.inj v) :: (cell ()).cur) f
let capture () = (cell ()).cur
