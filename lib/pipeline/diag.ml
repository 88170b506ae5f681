type pos =
  { line : int
  ; col : int
  }

let pos_to_string p = Printf.sprintf "%d:%d" p.line p.col

type t =
  { stage : string
  ; loc : pos option
  ; message : string
  }

exception Error of t

let v ?loc ~stage message = { stage; loc; message }
let fail ?loc ~stage message = raise (Error { stage; loc; message })

let failf ?loc ~stage fmt =
  Format.kasprintf (fun message -> fail ?loc ~stage message) fmt

let of_exn ~stage = function
  | Error d -> d
  | e -> { stage; loc = None; message = Printexc.to_string e }

let located d =
  match d.loc with
  | None -> d.message
  | Some p -> pos_to_string p ^ ": " ^ d.message

let to_string d = d.stage ^ ": " ^ located d

(* registering a printer keeps accidental escapes readable in test
   output and crash logs *)
let () =
  Printexc.register_printer (function
    | Error d -> Some ("Diag.Error (" ^ to_string d ^ ")")
    | _ -> None)
