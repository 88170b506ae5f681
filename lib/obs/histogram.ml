(* Log-bucketed histogram.  Bucket 0 holds value 0 (and anything
   clamped up from below); bucket [i >= 1] holds [2^(i-1) .. 2^i - 1],
   i.e. values with exactly [i] significant bits.  63 buckets cover the
   whole non-negative [int] range, so recording never saturates.

   Each bucket keeps a count and a sum: a percentile is answered with
   the mean of the bucket the rank falls in, which bounds the relative
   error by the bucket width (< 2x) and is exact whenever every sample
   in that bucket is equal — the property the unit tests pin down.

   All operations take the internal mutex; instances are safe to share
   across the daemon's connection threads. *)

let nbuckets = 63

type t =
  { lock : Mutex.t
  ; counts : int array
  ; sums : float array
  ; mutable n : int
  ; mutable vmax : int
  }

let create () =
  { lock = Mutex.create ()
  ; counts = Array.make nbuckets 0
  ; sums = Array.make nbuckets 0.0
  ; n = 0
  ; vmax = 0
  }

let locked t f = Mutex.protect t.lock f

let bucket_of v =
  if v <= 0 then 0
  else begin
    (* number of significant bits *)
    let rec bits acc x = if x = 0 then acc else bits (acc + 1) (x lsr 1) in
    bits 0 v
  end

let add t v =
  let v = max 0 v in
  let b = bucket_of v in
  locked t (fun () ->
      t.counts.(b) <- t.counts.(b) + 1;
      t.sums.(b) <- t.sums.(b) +. float_of_int v;
      t.n <- t.n + 1;
      if v > t.vmax then t.vmax <- v)

let count t = locked t (fun () -> t.n)
(* rank r (1-based) = the r-th smallest recorded value; percentile p
   uses the nearest-rank definition r = ceil(p/100 * n), clamped to
   [1, n]. *)
let percentile t p =
  locked t (fun () ->
      if t.n = 0 then 0
      else begin
        let r =
          let raw = int_of_float (ceil (p /. 100.0 *. float_of_int t.n)) in
          max 1 (min t.n raw)
        in
        let rec walk i seen =
          if i >= nbuckets then t.vmax
          else begin
            let seen' = seen + t.counts.(i) in
            if r <= seen' then
              int_of_float
                (Float.round (t.sums.(i) /. float_of_int t.counts.(i)))
            else walk (i + 1) seen'
          end
        in
        walk 0 0
      end)
