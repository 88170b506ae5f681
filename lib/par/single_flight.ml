(* A flight is claimed under the table lock, computed outside it, and
   landed under it again: the outcome is stored in the flight record
   (which waiters hold on to) before the key is removed, so a waiter
   woken after removal still finds its result. *)

type 'a flight = { mutable landed : ('a, exn * Printexc.raw_backtrace) result option }

type 'a t =
  { lock : Mutex.t
  ; landed_cond : Condition.t
  ; flights : (string, 'a flight) Hashtbl.t
  }

let create () =
  { lock = Mutex.create ()
  ; landed_cond = Condition.create ()
  ; flights = Hashtbl.create 8
  }

let outcome = function
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let run t key f =
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.flights key with
  | Some fl ->
    let rec await () =
      match fl.landed with
      | Some r -> r
      | None ->
        Condition.wait t.landed_cond t.lock;
        await ()
    in
    let r = await () in
    Mutex.unlock t.lock;
    (`Shared, outcome r)
  | None ->
    let fl = { landed = None } in
    Hashtbl.add t.flights key fl;
    Mutex.unlock t.lock;
    let r =
      match f () with
      | v -> Ok v
      | exception e -> Error (e, Printexc.get_raw_backtrace ())
    in
    Mutex.protect t.lock (fun () ->
        fl.landed <- Some r;
        Hashtbl.remove t.flights key;
        Condition.broadcast t.landed_cond);
    (`Fresh, outcome r)
