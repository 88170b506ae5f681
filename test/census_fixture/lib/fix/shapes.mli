val area : int -> int -> int

val perimeter : int -> int -> int
