(* Each [run] is a batch: its own result slots, an atomic claim index
   and a completion counter.  The shared queue holds tickets, each of
   which claims and runs tasks of one batch until that batch has none
   left unclaimed; a ticket whose batch was drained by someone else is a
   no-op.  The submitting caller claims from its own batch directly and
   never takes a ticket, so it only ever runs its own tasks: a task
   that calls [run] again waits on work it can always finish itself,
   which is what makes nested submission safe.  Several batches can be
   in flight at once — the serve daemon submits from concurrent request
   domains. *)

type t =
  { pool_size : int
  ; lock : Mutex.t
  ; work : Condition.t  (* queue non-empty, or stopping *)
  ; settled : Condition.t  (* some batch finished its last task *)
  ; queue : (unit -> unit) Queue.t
  ; mutable stopping : bool
  ; mutable workers : unit Domain.t list
  }

let size t = t.pool_size

let recommended_domains () = min 8 (Domain.recommended_domain_count ())

let worker_loop t () =
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

let run ?(label = "par.task") t thunks =
  let thunks = Array.of_list thunks in
  let n = Array.length thunks in
  (* every task runs in its submitter's whole scope — recorder, certify
     flag, journal — whichever domain claims it *)
  let scope = Sc_obs.Scope.capture () in
  let obs = Sc_obs.Obs.enabled () in
  let exec f =
    Sc_obs.Scope.within scope
      (if obs then fun () -> Sc_obs.Obs.span label f else f)
  in
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

let map_list ?label t f xs = run ?label t (List.map (fun x () -> f x) xs)

let map_array ?label t f xs =
  Array.of_list (run ?label t (Array.to_list (Array.map (fun x () -> f x) xs)))

(* --- the process-default pool --- *)

let wanted = ref 1
let current : t option ref = ref None
let current_lock = Mutex.create ()

let default_size () = !wanted

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
