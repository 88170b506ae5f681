(* Machine-speed calibration.

   On a shared host the same compile can take 1.5x longer from one
   minute to the next, and CPU time grows with wall time (a busy
   hyperthread sibling slows every instruction).  To keep runs
   comparable, the benchmark times a fixed kernel between requests and
   reports every declared time at the reference speed: measured time
   x [reference_ms] / (the kernel's time around that request).  The
   kernel is the benchmark's own code, unaffected by any change to the
   compiler.  Raw times are printed and written alongside. *)

(* the kernel's time on the idle 2-core reference host *)
let reference_ms = 7.0

module M = Map.Make (Int)

(* fixed work of the kind a compiler does: a balanced tree built by
   boxed allocation, most of it promoted to the major heap *)
let kernel () =
  let t0 = Unix.gettimeofday () in
  let m = ref M.empty in
  for i = 0 to 20_000 do
    m := M.add ((i * 7919) land 262143) i !m
  done;
  ignore (Sys.opaque_identity (M.cardinal !m));
  (Unix.gettimeofday () -. t0) *. 1000.

type t =
  { lock : Mutex.t
  ; mutable samples : (float * float) list  (** (time, kernel ms), newest first *)
  }

(* the first runs pay for growing the heap: not counted *)
let create () =
  ignore (kernel ());
  ignore (kernel ());
  { lock = Mutex.create (); samples = [] }

let sample t =
  let ms = kernel () in
  let now = Unix.gettimeofday () in
  Mutex.lock t.lock;
  t.samples <- (now, ms) :: t.samples;
  Mutex.unlock t.lock

let samples t =
  Mutex.lock t.lock;
  let s = t.samples in
  Mutex.unlock t.lock;
  s

(* time since the last sample *)
let since_last t =
  match samples t with (time, _) :: _ -> Unix.gettimeofday () -. time | [] -> infinity

(* sample, unless one was taken in the last 100 ms *)
let tick t = if since_last t >= 0.1 then sample t

(* the kernel's time around [t0, t1]: the mean of the samples taken
   within it and of the nearest one on either side *)
let around t t0 t1 =
  let samples = samples t in
  let before = List.find_opt (fun (time, _) -> time < t0) samples in
  let after =
    List.fold_left (fun acc ((time, _) as s) -> if time > t1 then Some s else acc) None samples
  in
  let inside = List.filter (fun (time, _) -> time >= t0 && time <= t1) samples in
  match List.map snd (Option.to_list before @ inside @ Option.to_list after) with
  | [] -> reference_ms
  | l -> Stat.mean l

(* [scale t ~t0 ~t1 v] — [v], measured over [t0, t1], at the reference
   speed *)
let scale t ~t0 ~t1 v = v *. reference_ms /. around t t0 t1

let median t = Stat.median (List.map snd (samples t))
