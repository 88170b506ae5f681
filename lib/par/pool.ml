(* Each [run] is a batch: its own result slots, an atomic claim index
   and a completion counter.  The shared queue holds tickets, each of
   which claims and runs tasks of one batch until that batch has none
   left unclaimed; a ticket whose batch was drained by someone else is a
   no-op.  The submitting caller claims from its own batch directly and
   never takes a ticket, so it only ever runs its own tasks: a task
   that calls [run] again waits on work it can always finish itself,
   which is what makes nested submission safe.  Several batches can be
   in flight at once — the serve daemon's executions submit from its
   execution domains concurrently.

   [offload] queues a single job instead of a batch: a worker runs it
   and hands the result back, while the caller sleeps on [settled]
   without claiming anything. *)

type t =
  { pool_size : int
  ; lock : Mutex.t
  ; work : Condition.t  (* queue non-empty, or stopping *)
  ; settled : Condition.t  (* a batch or an offloaded job finished *)
  ; queue : (unit -> unit) Queue.t
  ; mutable stopping : bool
  ; mutable workers : unit Domain.t list
  }

let size t = t.pool_size

(* the default width: as many domains as the runtime recommends, at
   most 8 (the widest pool the width-determinism tests use) *)
let recommended_domains () = min 8 (Domain.recommended_domain_count ())

(* the pool a domain works for, so [offload] can tell a nested call *)
let member : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let worker_loop t () =
  Domain.DLS.set member (Some t);
  let rec loop () =
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.work t.lock
    done;
    let ticket = Queue.take_opt t.queue in
    Mutex.unlock t.lock;
    match ticket with
    | Some f ->
      f ();
      loop ()
    | None -> () (* stopping and drained *)
  in
  loop ()

let create ?domains () =
  let pool_size =
    match domains with
    | Some n -> max 1 n
    | None -> recommended_domains ()
  in
  let t =
    { pool_size
    ; lock = Mutex.create ()
    ; work = Condition.create ()
    ; settled = Condition.create ()
    ; queue = Queue.create ()
    ; stopping = false
    ; workers = []
    }
  in
  t.workers <- List.init (pool_size - 1) (fun _ -> Domain.spawn (worker_loop t));
  t

let shutdown t =
  Mutex.lock t.lock;
  t.stopping <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.lock;
  List.iter Domain.join t.workers;
  t.workers <- []

type 'a slot =
  | Pending
  | Done of 'a
  | Raised of exn

(* every task runs in its submitter's whole scope — recorder, certify
   flag, journal — whichever domain claims it *)
let in_scope label =
  let scope = Sc_obs.Scope.capture () in
  let obs = Sc_obs.Obs.enabled () in
  ( obs
  , fun f ->
      Sc_obs.Scope.within scope
        (if obs then fun () -> Sc_obs.Obs.span label f else f) )

let offload t f =
  let _, exec = in_scope "par.offload" in
  let nested =
    match Domain.DLS.get member with Some p -> p == t | None -> false
  in
  Mutex.lock t.lock;
  if t.pool_size <= 1 || t.stopping || nested then begin
    (* no worker to take it: a size-1 or shut-down pool, or a call from
       one of this pool's own workers, which must not wait on itself *)
    Mutex.unlock t.lock;
    exec f
  end
  else begin
    let slot = ref Pending in
    Queue.add
      (fun () ->
        let r = match exec f with v -> Done v | exception e -> Raised e in
        Mutex.lock t.lock;
        slot := r;
        Condition.broadcast t.settled;
        Mutex.unlock t.lock)
      t.queue;
    Condition.signal t.work;
    while match !slot with Pending -> true | Done _ | Raised _ -> false do
      Condition.wait t.settled t.lock
    done;
    Mutex.unlock t.lock;
    match !slot with
    | Done v -> v
    | Raised e -> raise e
    | Pending -> assert false
  end

let run ?(label = "par.task") t thunks =
  let thunks = Array.of_list thunks in
  let n = Array.length thunks in
  let obs, exec = in_scope label in
  if obs then Sc_obs.Obs.gauge "pool.width" t.pool_size;
  if t.pool_size <= 1 || n <= 1 then begin
    (* sequential path: no queueing, natural exception propagation *)
    if obs then Sc_obs.Obs.count "pool.d0.tasks" n;
    Array.to_list (Array.map (fun f -> exec f) thunks)
  end
  else begin
    let slots = Array.make n Pending in
    let next = Atomic.make 0 in
    let remaining = ref n in
    (* which domain completed each task, for the load-imbalance gauges:
       rank 0 is the caller, workers rank by spawn order *)
    let ran_on = Array.make n (-1) in
    let caller = (Domain.self () :> int) in
    let rank_of =
      let workers =
        List.mapi (fun i d -> ((Domain.get_id d :> int), i + 1)) t.workers
      in
      fun id -> if id = caller then 0 else List.assoc id workers
    in
    (* run the next unclaimed task; false once every task is claimed *)
    let claim () =
      let i = Atomic.fetch_and_add next 1 in
      if i >= n then false
      else begin
        ran_on.(i) <- (Domain.self () :> int);
        (slots.(i) <-
          (match exec thunks.(i) with
          | v -> Done v
          | exception e -> Raised e));
        Mutex.lock t.lock;
        decr remaining;
        if !remaining = 0 then Condition.broadcast t.settled;
        Mutex.unlock t.lock;
        true
      end
    in
    let drain () =
      while claim () do
        ()
      done
    in
    Mutex.lock t.lock;
    for _ = 1 to min (n - 1) (t.pool_size - 1) do
      Queue.add drain t.queue
    done;
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    (* the caller works its own batch, then waits for stragglers *)
    drain ();
    Mutex.lock t.lock;
    while !remaining > 0 do
      Condition.wait t.settled t.lock
    done;
    Mutex.unlock t.lock;
    if obs then begin
      Sc_obs.Obs.count (label ^ ".tasks") n;
      let per_rank = Array.make t.pool_size 0 in
      Array.iter
        (fun id ->
          let r = rank_of id in
          per_rank.(r) <- per_rank.(r) + 1)
        ran_on;
      Array.iteri
        (fun r c ->
          if c > 0 then Sc_obs.Obs.count (Printf.sprintf "pool.d%d.tasks" r) c)
        per_rank
    end;
    Array.to_list
      (Array.map
         (function
           | Done v -> v
           | Raised e -> raise e
           | Pending -> assert false)
         slots)
  end

(* --- the process-default pool --- *)

let wanted = ref 1
let current : t option ref = ref None
let current_lock = Mutex.create ()

let drop_current () =
  match !current with
  | Some p ->
    current := None;
    shutdown p
  | None -> ()

let () = at_exit drop_current

let set_default_size n =
  let n = max 1 n in
  if n <> !wanted then begin
    wanted := n;
    drop_current ()
  end

(* locked: concurrent daemon executions must not each create (and
   leak) a pool *)
let default () =
  Mutex.protect current_lock (fun () ->
      match !current with
      | Some p -> p
      | None ->
        let p = create ~domains:!wanted () in
        current := Some p;
        p)
