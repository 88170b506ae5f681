type t = Diffusion | Poly | Contact | Metal | Implant | Buried | Glass

let all = [ Diffusion; Poly; Contact; Metal; Implant; Buried; Glass ]

let cif_name = function
  | Diffusion -> "ND"
  | Poly -> "NP"
  | Contact -> "NC"
  | Metal -> "NM"
  | Implant -> "NI"
  | Buried -> "NB"
  | Glass -> "NG"

let of_cif_name = function
  | "ND" -> Some Diffusion
  | "NP" -> Some Poly
  | "NC" -> Some Contact
  | "NM" -> Some Metal
  | "NI" -> Some Implant
  | "NB" -> Some Buried
  | "NG" -> Some Glass
  | _ -> None

let index = function
  | Diffusion -> 0
  | Poly -> 1
  | Contact -> 2
  | Metal -> 3
  | Implant -> 4
  | Buried -> 5
  | Glass -> 6

let count = 7
let equal (a : t) b = a = b
let pp ppf l = Format.pp_print_string ppf (cif_name l)
let to_string = cif_name
