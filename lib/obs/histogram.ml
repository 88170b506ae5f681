(* Log-bucketed histogram, four buckets per octave.  Bucket 0 holds
   value 0 (and anything clamped up from below); bucket [i >= 1] holds
   the integers [v] with [2^((i-1)/4) <= v < 2^(i/4)], so each bucket's
   largest value is less than 2^(1/4) (1.189) times its smallest, and
   some buckets below 8 hold no integer at all.  253 buckets cover the
   whole non-negative [int] range, so recording never saturates.

   Each bucket keeps a count and a sum: a percentile is answered with
   the mean of the bucket the rank falls in, which bounds the relative
   error by the bucket width (< 18.9 %) and is exact whenever every
   sample in that bucket is equal — the properties the unit tests pin
   down.  Quarter octaves, not octaves, because the daemon's memory-hit
   p50 sits near the 128 us edge: with one bucket per octave it could
   only read as one octave's mean or the next's, ~90 or ~170 us.

   All operations take the internal mutex; instances are safe to share
   across the daemon's connection threads. *)

let nbuckets = 1 + (4 * 63)

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

(* the quarter-octave edges as fractions of the next power of two:
   2^(j/4) / 2 for j = 1, 2, 3 *)
let q1 = Float.pow 2.0 (-0.75)
let q2 = Float.pow 2.0 (-0.5)
let q3 = Float.pow 2.0 (-0.25)

(* [v = m * 2^e] with [0.5 <= m < 1]: octave [e - 1], and [m] against
   the irrational edges picks the quarter.  [m] is exact below 2^53 and
   no such integer lies on an edge, so the split is exact there. *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let m, e = Float.frexp (float_of_int v) in
    let quarter =
      if m < q1 then 0 else if m < q2 then 1 else if m < q3 then 2 else 3
    in
    1 + (4 * (e - 1)) + quarter
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
