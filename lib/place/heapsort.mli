(** The standard library's array heap sort, specialised to sorting
    indices by a float key.

    [by_key key a] sorts [a] — indices into [key] — by ascending
    [key.(i)], exactly as
    [Array.sort (fun i j -> Float.compare key.(i) key.(j)) a] does: the
    same ternary heap sort making the same comparisons, so equal keys
    end in the same (unstable) order, without a comparison closure.
    The barycentre placement ({!Placer.ordered}) depends on that order. *)
val by_key : float array -> int array -> unit
