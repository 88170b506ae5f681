(* Recorder instances.  A [Recorder.t] carries its own contexts, epoch
   and enabled flag; [with_recorder] binds one in the calling context's
   {!Scope}, and the instrumentation entry points record into whichever
   recorder is bound there — or do nothing.

   Everything below the [on] check is only reachable when recording, so
   the cost of a span with no enabled recorder is one scope lookup and
   a branch (plus the closure call the caller already paid for).

   The recording path takes no lock and hashes one string per counter
   update:
   - names are interned once per process ({!Key}): a counter update
     finds its key in a table it reads without a lock, and a span finds
     its path among its parent path's children, so a dotted path is
     built once per (parent, name);
   - each execution context — a (domain, thread) pair — records into
     its own [ctx]: its frame stack, its completed frames, its
     per-path rows and its counter cells.  A domain caches the context
     it used last, so only a context's first use takes the lock;
   - a frame keeps its counters in a mutable slot list, and a span
     folds its time and counters into its path's row when it closes.
   Readers merge the contexts.  Counts commute; a gauge is ordered
   against other contexts' updates of the same key by the recorder's
   gauge stamp, which only gauges advance. *)

type event =
  { path : string
  ; name : string
  ; depth : int
  ; tid : int
  ; start_us : float
  ; dur_us : float
  ; self_us : float
  ; counters : (string * int) list
  }

type row =
  { rpath : string
  ; rdepth : int
  ; calls : int
  ; total_ms : float
  ; self_ms : float
  ; rcounters : (string * int) list
  }

(* --- process-wide keys: counter names and span paths --- *)

module Key = struct
  type t =
    { text : string
    ; id : int
    }

  (* Reads take no lock: each bucket is an immutable list behind an
     atomic.  An insert takes the lock, prepends to its bucket and, past
     two keys a bucket, rehashes into a table twice the size that it
     then publishes, so inserts cost O(1) amortized however many names
     a long-lived process meets.  A reader holding a table that has
     since been replaced misses the newer keys and retries under the
     lock. *)
  let table = Atomic.make (Array.init 64 (fun _ -> Atomic.make []))
  let lock = Mutex.create ()
  let count = ref 0  (* under [lock] *)
  let all = ref []  (* under [lock]: every key, newest first *)

  let rec find text = function
    | [] -> raise Not_found
    | k :: rest -> if String.equal k.text text then k else find text rest

  let bucket tb text = tb.(String.hash text land (Array.length tb - 1))

  let intern text =
    match find text (Atomic.get (bucket (Atomic.get table) text)) with
    | k -> k
    | exception Not_found ->
      Mutex.protect lock (fun () ->
          let tb = Atomic.get table in
          let b = bucket tb text in
          match find text (Atomic.get b) with
          | k -> k
          | exception Not_found ->
            let k = { text; id = !count } in
            incr count;
            all := k :: !all;
            Atomic.set b (k :: Atomic.get b);
            if !count > 2 * Array.length tb then begin
              let tb = Array.init (2 * Array.length tb) (fun _ -> Atomic.make []) in
              List.iter
                (fun k ->
                  let b = bucket tb k.text in
                  Atomic.set b (k :: Atomic.get b))
                !all;
              Atomic.set table tb
            end;
            k)

  let text k = k.text

  (* Text-order ranks of the keys interned before the last ranking,
     indexed by id.  A sort that meets a newer key compares texts
     instead; after enough such sorts the keys are ranked again, so a
     process whose names stop growing soon sorts by rank alone. *)
  let ranked = Atomic.make [||]
  let unranked_sorts = Atomic.make 0

  let rank_all () =
    let keys = Mutex.protect lock (fun () -> !all) in
    let a = Array.make (List.length keys) 0 in
    List.iteri
      (fun i k -> a.(k.id) <- i)
      (List.sort (fun a b -> String.compare a.text b.text) keys);
    Atomic.set unranked_sorts 0;
    Atomic.set ranked a

  (* ascending, in place: insertion for the few dozen keys a capture
     sorts, else the library's sort *)
  let sort_ints a =
    let n = Array.length a in
    if n > 64 then Array.sort Int.compare a
    else
      for i = 1 to n - 1 do
        let x = a.(i) in
        let j = ref (i - 1) in
        while !j >= 0 && a.(!j) > x do
          a.(!j + 1) <- a.(!j);
          decr j
        done;
        a.(!j + 1) <- x
      done

  (* each entry sorts as [rank * n + index], so equal keys keep their
     order *)
  let by_rank rank l =
    let entries = Array.of_list l in
    let n = Array.length entries in
    let order = Array.mapi (fun i (k, _) -> (rank.(k.id) * n) + i) entries in
    sort_ints order;
    let rec build i acc =
      if i < 0 then acc
      else
        let k, v = entries.(order.(i) mod n) in
        build (i - 1) ((k.text, v) :: acc)
    in
    build (n - 1) []

  let sorted l =
    let rank = Atomic.get ranked in
    if List.for_all (fun (k, _) -> k.id < Array.length rank) l then by_rank rank l
    else begin
      if Atomic.fetch_and_add unranked_sorts 1 >= max 16 (Array.length rank / 64)
      then rank_all ();
      List.stable_sort (fun (a, _) (b, _) -> String.compare a.text b.text) l
      |> List.map (fun (k, v) -> (k.text, v))
    end

  (* a table indexed by key id, grown and written under the lock; a
     racing reader at worst misses a fresh entry and computes it again *)
  let memo f =
    let table = Atomic.make [||] and lock = Mutex.create () in
    fun k ->
      let a = Atomic.get table in
      match if k.id < Array.length a then Array.unsafe_get a k.id else None with
      | Some v -> v
      | None ->
        let v = f k in
        Mutex.protect lock (fun () ->
            let a = Atomic.get table in
            if k.id < Array.length a then a.(k.id) <- Some v
            else begin
              let b = Array.make (max (k.id + 1) (2 * Array.length a)) None in
              Array.blit a 0 b 0 (Array.length a);
              b.(k.id) <- Some v;
              Atomic.set table b
            end);
        v
end

(* a span path: one node per (parent, name), its dotted text interned *)
type node =
  { nname : string
  ; nkey : Key.t
  ; ndepth : int
  ; kids : node list Atomic.t
  }

let root =
  { nname = ""; nkey = { Key.text = ""; id = -1 }; ndepth = -1
  ; kids = Atomic.make [] }

let path_lock = Mutex.create ()

let rec find_kid name = function
  | [] -> root
  | n :: rest -> if String.equal n.nname name then n else find_kid name rest

let child parent name =
  let n = find_kid name (Atomic.get parent.kids) in
  if n != root then n
  else
    Mutex.protect path_lock (fun () ->
        let kids = Atomic.get parent.kids in
        let n = find_kid name kids in
        if n != root then n
        else begin
          let path =
            if parent == root then name else parent.nkey.text ^ "." ^ name
          in
          let n =
            { nname = name; nkey = Key.intern path; ndepth = parent.ndepth + 1
            ; kids = Atomic.make [] }
          in
          Atomic.set parent.kids (n :: kids);
          n
        end)

(* --- a small table from key id to a record, for one context --- *)

module Itbl = struct
  type 'a t =
    { mutable ids : int array  (* -1: empty *)
    ; mutable vals : 'a array
    ; mutable n : int
    ; absent : 'a
    }

  let create size absent =
    { ids = Array.make size (-1); vals = Array.make size absent; n = 0; absent }

  (* [t.absent] when [id] has no record *)
  let find t id =
    let m = Array.length t.ids - 1 in
    let rec go i =
      let k = Array.unsafe_get t.ids i in
      if k = id then Array.unsafe_get t.vals i
      else if k < 0 then t.absent
      else go ((i + 1) land m)
    in
    go (id land m)

  let rec add t id v =
    if 4 * (t.n + 1) > 3 * Array.length t.ids then begin
      let ids = t.ids and vals = t.vals in
      t.ids <- Array.make (2 * Array.length ids) (-1);
      t.vals <- Array.make (2 * Array.length ids) t.absent;
      t.n <- 0;
      Array.iteri (fun i k -> if k >= 0 then add t k vals.(i)) ids
    end;
    let m = Array.length t.ids - 1 in
    let rec go i =
      if t.ids.(i) < 0 then begin
        t.ids.(i) <- id;
        t.vals.(i) <- v;
        t.n <- t.n + 1
      end
      else go ((i + 1) land m)
    in
    go (id land m)

  let fold f t acc =
    let acc = ref acc in
    Array.iteri (fun i k -> if k >= 0 then acc := f t.vals.(i) !acc) t.ids;
    !acc
end

(* --- recording state --- *)

type slot =
  { skey : Key.t
  ; mutable v : int
  }

(* all-float records are stored flat: no box per update *)
type times =
  { start : float
  ; mutable dur : float
  ; mutable children : float  (* seconds spent in completed children *)
  }

type frame =
  { node : node
  ; times : times
  ; mutable slots : slot list  (* reverse insertion order *)
  }

type sums =
  { first : float  (* start of the first completed occurrence *)
  ; mutable total : float
  ; mutable self : float
  }

(* a path's row on one context, updated as each occurrence closes; its
   first occurrence lends the row its slots, copied before a second one
   adds to them *)
type stage =
  { pkey : Key.t
  ; pdepth : int
  ; seq : int  (* creation order on its context *)
  ; mutable pcalls : int
  ; sums : sums
  ; mutable pslots : slot list  (* reverse first appearance *)
  ; mutable later : (float * int) list
    (* newest first: a later occurrence's start and how many counters
       it added to [pslots] *)
  }

(* A counter on one context.  Adds accumulate in batches; a batch ends
   when another context sets a gauge, and carries the recorder's gauge
   stamp at its start, so a reader knows which adds follow the last
   set of the key on any context.  Batches before this context's own
   last set are dropped. *)
type cell =
  { ckey : Key.t
  ; mutable set_at : int  (* stamp of this context's last set; 0: none *)
  ; mutable setv : int
  ; mutable seg : int  (* gauge stamp when the current batch began *)
  ; mutable seg_foreign : int  (* other contexts' sets by then *)
  ; mutable sum : int  (* the current batch *)
  ; mutable older : (int * int) list  (* earlier batches: (seg, sum) *)
  }

type ctx =
  { owner : t
  ; thread : int
  ; tid : int  (* domain id *)
  ; mutable stack : frame list
  ; mutable finished : frame list  (* reverse completion order *)
  ; stages : stage Itbl.t  (* by path key *)
  ; cells : cell Itbl.t  (* by counter key *)
  ; mutable nstages : int
  ; mutable nsets : int  (* gauges this context has set *)
  ; mutable updates : int  (* counter and gauge calls *)
  }

and t =
  { mutable on : bool
  ; mutable epoch : float
  ; stamp : int Atomic.t  (* gauges set so far, over all contexts *)
  ; mutable ctxs : ctx list  (* newest first; under [ctx_lock] *)
  }

let no_key = root.nkey

let absent_stage =
  { pkey = no_key; pdepth = 0; seq = 0; pcalls = 0
  ; sums = { first = 0.0; total = 0.0; self = 0.0 }; pslots = []; later = [] }

let absent_cell =
  { ckey = no_key; set_at = 0; setv = 0; seg = 0; seg_foreign = 0; sum = 0
  ; older = [] }

let new_ctx owner thread =
  { owner; thread; tid = (Domain.self () :> int); stack = []; finished = []
  ; stages = Itbl.create 32 absent_stage; cells = Itbl.create 64 absent_cell
  ; nstages = 0; nsets = 0; updates = 0
  }

let ctx_lock = Mutex.create ()

let last =
  Domain.DLS.new_key (fun () ->
      new_ctx { on = false; epoch = 0.0; stamp = Atomic.make 0; ctxs = [] } (-1))

(* the calling context's recording: the domain's last one, or a lookup
   under the lock on a context's first use *)
let context t =
  let c = Domain.DLS.get last in
  let thread = Thread.id (Thread.self ()) in
  if c.owner == t && c.thread = thread then c
  else begin
    let tid = (Domain.self () :> int) in
    let c =
      Mutex.protect ctx_lock (fun () ->
          match List.find_opt (fun c -> c.tid = tid && c.thread = thread) t.ctxs with
          | Some c -> c
          | None ->
            let c = new_ctx t thread in
            t.ctxs <- c :: t.ctxs;
            c)
    in
    Domain.DLS.set last c;
    c
  end

module Recorder = struct
  type nonrec t = t

  let create () = { on = false; epoch = 0.0; stamp = Atomic.make 0; ctxs = [] }

  let enable t =
    if t.epoch = 0.0 then t.epoch <- Unix.gettimeofday ();
    t.on <- true

  let disable t = t.on <- false

  (* contexts in creation order *)
  let contexts t = Mutex.protect ctx_lock (fun () -> List.rev t.ctxs)

  let rec add_slot k v = function
    | [] -> false
    | s :: rest ->
      if s.skey == k then begin
        s.v <- s.v + v;
        true
      end
      else add_slot k v rest

  (* fold a frame's counters into a row, in the frame's insertion order *)
  let rec merge_slots st = function
    | [] -> 0
    | s :: rest ->
      let added = merge_slots st rest in
      if add_slot s.skey s.v st.pslots then added
      else begin
        st.pslots <- { skey = s.skey; v = s.v } :: st.pslots;
        added + 1
      end

  let close c fr =
    let tm = fr.times in
    let dur = Unix.gettimeofday () -. tm.start in
    tm.dur <- dur;
    (match c.stack with top :: rest when top == fr -> c.stack <- rest | _ -> ());
    (match c.stack with
    | p :: _ -> p.times.children <- p.times.children +. dur
    | [] -> ());
    c.finished <- fr :: c.finished;
    let k = fr.node.nkey in
    let st =
      let st = Itbl.find c.stages k.id in
      if st != absent_stage then st
      else begin
        let st =
          { pkey = k; pdepth = fr.node.ndepth; seq = c.nstages; pcalls = 0
          ; sums = { first = tm.start; total = 0.0; self = 0.0 }; pslots = []
          ; later = [] }
        in
        c.nstages <- c.nstages + 1;
        Itbl.add c.stages k.id st;
        st
      end
    in
    st.sums.total <- st.sums.total +. dur;
    st.sums.self <- st.sums.self +. (dur -. tm.children);
    if st.pcalls = 0 then st.pslots <- fr.slots
    else begin
      if st.pcalls = 1 then
        st.pslots <- List.map (fun s -> { s with v = s.v }) st.pslots;
      let added = merge_slots st fr.slots in
      if added > 0 then st.later <- (tm.start, added) :: st.later
    end;
    st.pcalls <- st.pcalls + 1

  let span t name f =
    if not t.on then f ()
    else
      let c = context t in
      match c.stack with
      | top :: _ when String.equal top.node.nname name ->
        (* re-entrant: a span opened inside a same-named span merges with
           it, so a pass manager wrapping "drc" around a checker that
           already opens "drc" yields one stage row, not "drc.drc" *)
        f ()
      | stack ->
        let parent = match stack with [] -> root | p :: _ -> p.node in
        let fr =
          { node = child parent name
          ; times = { start = Unix.gettimeofday (); dur = 0.0; children = 0.0 }
          ; slots = []
          }
        in
        c.stack <- fr :: stack;
        (match f () with
        | r ->
          close c fr;
          r
        | exception e ->
          close c fr;
          raise e)

  let rec set_slot k v = function
    | [] -> false
    | s :: rest ->
      if s.skey == k then begin
        s.v <- v;
        true
      end
      else set_slot k v rest

  let bump t name v ~add =
    if t.on then begin
      let c = context t in
      let k = Key.intern name in
      c.updates <- c.updates + 1;
      (match c.stack with
      | fr :: _ ->
        if not (if add then add_slot k v fr.slots else set_slot k v fr.slots)
        then fr.slots <- { skey = k; v } :: fr.slots
      | [] -> ());
      let cell =
        let cell = Itbl.find c.cells k.id in
        if cell != absent_cell then cell
        else begin
          let x = Atomic.get t.stamp in
          let cell =
            { ckey = k; set_at = 0; setv = 0; seg = x; seg_foreign = x - c.nsets
            ; sum = 0; older = [] }
          in
          Itbl.add c.cells k.id cell;
          cell
        end
      in
      if add then begin
        let x = Atomic.get t.stamp in
        let foreign = x - c.nsets in
        if foreign = cell.seg_foreign then cell.sum <- cell.sum + v
        else begin
          if cell.sum <> 0 then cell.older <- (cell.seg, cell.sum) :: cell.older;
          cell.seg <- x;
          cell.seg_foreign <- foreign;
          cell.sum <- v
        end
      end
      else begin
        let s = Atomic.fetch_and_add t.stamp 1 + 1 in
        c.nsets <- c.nsets + 1;
        cell.set_at <- s;
        cell.setv <- v;
        cell.older <- [];
        cell.seg <- s;
        cell.seg_foreign <- s - c.nsets;
        cell.sum <- 0
      end
    end

  let count t name n = bump t name n ~add:true
  let gauge t name v = bump t name v ~add:false

  let updates t = List.fold_left (fun a c -> a + c.updates) 0 (contexts t)

  (* --- reading: the contexts merged --- *)

  let batches_from s cell =
    List.fold_left
      (fun a (seg, sum) -> if seg >= s then a + sum else a)
      (if cell.seg >= s then cell.sum else 0)
      cell.older

  let fold_totals t f acc =
    match contexts t with
    | [ c ] ->
      Itbl.fold
        (fun cell acc ->
          f cell.ckey
            ((if cell.set_at > 0 then cell.setv else 0) + batches_from 0 cell)
            acc)
        c.cells acc
    | cs ->
      (* per key: the last set over every context, plus the adds that
         followed it on any context *)
      let by_key : (int, cell list) Hashtbl.t = Hashtbl.create 64 in
      List.iter
        (fun c ->
          Itbl.fold
            (fun cell () ->
              let id = cell.ckey.Key.id in
              Hashtbl.replace by_key id
                (cell :: Option.value ~default:[] (Hashtbl.find_opt by_key id)))
            c.cells ())
        cs;
      Hashtbl.fold
        (fun _ cells acc ->
          let last =
            List.fold_left
              (fun l cell -> if cell.set_at > l.set_at then cell else l)
              (List.hd cells) cells
          in
          let s = last.set_at in
          let base = if s > 0 then last.setv else 0 in
          f (List.hd cells).ckey
            (List.fold_left (fun a cell -> a + batches_from s cell) base cells)
            acc)
        by_key acc

  let totals t =
    fold_totals t (fun k v acc -> (k.Key.text, v) :: acc) []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let by_first a b =
    match Float.compare a.sums.first b.sums.first with
    | 0 -> (
      match Int.compare a.pdepth b.pdepth with 0 -> Int.compare a.seq b.seq | c -> c)
    | c -> c

  (* a row's counters, each with the start of the occurrence that
     added it *)
  let introductions st =
    let rec go start n slots later acc =
      match (slots, later) with
      | [], _ -> acc
      | s :: rest, _ when n > 0 -> go start (n - 1) rest later ((start, s.skey) :: acc)
      | _, (start, n) :: later -> go start n slots later acc
      | _, [] -> acc
    in
    let later = List.rev st.later in
    let first = List.length st.pslots - List.fold_left (fun a (_, n) -> a + n) 0 later in
    List.rev (go st.sums.first first (List.rev st.pslots) later [])

  (* one row per path: a lone context's own, or every context's merged,
     its counters in the order they first appeared on any context *)
  let stages t =
    match contexts t with
    | [ c ] -> Itbl.fold List.cons c.stages []
    | cs ->
      let groups : (int, stage list) Hashtbl.t = Hashtbl.create 32 in
      List.concat_map (fun c -> Itbl.fold List.cons c.stages []) cs
      |> List.stable_sort by_first
      |> List.iter (fun st ->
             let id = st.pkey.Key.id in
             Hashtbl.replace groups id
               (st :: Option.value ~default:[] (Hashtbl.find_opt groups id)));
      Hashtbl.fold
        (fun _ group acc ->
          let group = List.rev group in
          let st0 = List.hd group in
          let pslots =
            List.concat_map introductions group
            |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
            |> List.fold_left
                 (fun slots (_, k) ->
                   if List.exists (fun s -> s.skey == k) slots then slots
                   else { skey = k; v = 0 } :: slots)
                 []
          in
          List.iter
            (fun st ->
              List.iter (fun s -> ignore (add_slot s.skey s.v pslots)) st.pslots)
            group;
          let sum f = List.fold_left (fun a st -> a +. f st.sums) 0.0 group in
          { st0 with
            pcalls = List.fold_left (fun a st -> a + st.pcalls) 0 group
          ; sums =
              { first = st0.sums.first
              ; total = sum (fun s -> s.total)
              ; self = sum (fun s -> s.self) }
          ; pslots
          ; later = []
          }
          :: acc)
        groups []

  let fold_stages t f acc =
    List.fold_left
      (fun acc st ->
        f st.pkey ~calls:st.pcalls ~total_ms:(st.sums.total *. 1e3)
          ~self_ms:(st.sums.self *. 1e3) acc)
      acc (stages t)

  let counters_of slots = List.rev_map (fun s -> (s.skey.Key.text, s.v)) slots

  let events t =
    List.concat_map
      (fun c ->
        List.rev_map
          (fun fr ->
            let tm = fr.times in
            { path = fr.node.nkey.Key.text
            ; name = fr.node.nname
            ; depth = fr.node.ndepth
            ; tid = c.tid
            ; start_us = (tm.start -. t.epoch) *. 1e6
            ; dur_us = tm.dur *. 1e6
            ; self_us = (tm.dur -. tm.children) *. 1e6
            ; counters = counters_of fr.slots
            })
          c.finished)
      (contexts t)
    |> List.stable_sort (fun a b -> Float.compare a.start_us b.start_us)

  (* --- per-stage aggregation --- *)

  let stage_table t =
    List.sort by_first (stages t)
    |> List.map (fun st ->
           { rpath = st.pkey.Key.text
           ; rdepth = st.pdepth
           ; calls = st.pcalls
           ; total_ms = st.sums.total *. 1e3
           ; self_ms = st.sums.self *. 1e3
           ; rcounters = counters_of st.pslots
           })

  let pp_counters ppf cs =
    List.iter (fun (k, v) -> Format.fprintf ppf " %s=%d" k v) cs

  let pp_summary ppf t =
    let rows = stage_table t in
    let wall =
      List.fold_left
        (fun a r -> if r.rdepth = 0 then a +. r.total_ms else a)
        0.0 rows
    in
    Format.fprintf ppf "%-28s %6s %9s %9s %6s  %s@."
      "stage" "calls" "total ms" "self ms" "%" "counters";
    List.iter
      (fun r ->
        let indent = String.make (2 * r.rdepth) ' ' in
        Format.fprintf ppf "%-28s %6d %9.2f %9.2f %5.1f%% %a@."
          (indent
          ^
          match String.rindex_opt r.rpath '.' with
          | Some i -> String.sub r.rpath (i + 1) (String.length r.rpath - i - 1)
          | None -> r.rpath)
          r.calls r.total_ms r.self_ms
          (if wall > 0.0 then 100.0 *. r.total_ms /. wall else 0.0)
          pp_counters r.rcounters)
      rows;
    match totals t with
    | [] -> ()
    | ts -> Format.fprintf ppf "counters:%a@." pp_counters ts

  (* --- Chrome trace-event export --- *)

  let chrome_trace t =
    let evs = events t in
    let span_events =
      List.map
        (fun e ->
          let base =
            [ ("name", Json.Str e.path)
            ; ("cat", Json.Str "scc")
            ; ("ph", Json.Str "X")
            ; ("ts", Json.Num e.start_us)
            ; ("dur", Json.Num e.dur_us)
            ; ("pid", Json.Num 1.0)
            ; ("tid", Json.Num (float_of_int (e.tid + 1)))
            ]
          in
          Json.Obj
            (match e.counters with
            | [] -> base
            | cs ->
              base
              @ [ ( "args"
                  , Json.Obj
                      (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) cs)
                  )
                ]))
        evs
    in
    let t_end =
      List.fold_left (fun a e -> Float.max a (e.start_us +. e.dur_us)) 0.0 evs
    in
    let counter_events =
      List.map
        (fun (k, v) ->
          Json.Obj
            [ ("name", Json.Str k)
            ; ("ph", Json.Str "C")
            ; ("ts", Json.Num t_end)
            ; ("pid", Json.Num 1.0)
            ; ("args", Json.Obj [ (k, Json.Num (float_of_int v)) ])
            ])
        (totals t)
    in
    Json.to_string
      (Json.Obj
         [ ("traceEvents", Json.Arr (span_events @ counter_events))
         ; ("displayTimeUnit", Json.Str "ms")
         ])

  let write_trace t path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (chrome_trace t))
end

(* --- the recorder in scope: unbound, a recorder nobody can enable --- *)

let current = Scope.key (Recorder.create ())
let with_recorder r f = Scope.with_ current r f
let enabled () = (Scope.get current).on
let span name f = Recorder.span (Scope.get current) name f
let count name n = Recorder.count (Scope.get current) name n
let gauge name v = Recorder.gauge (Scope.get current) name v
