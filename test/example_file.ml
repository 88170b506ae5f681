(* A committed file under examples/ (each is a dune dep of the test
   binary): [dune runtest] runs in the build's test directory, a direct
   run of the binary from the project root. *)
let read name =
  let path =
    if Sys.file_exists ("../examples/" ^ name) then "../examples/" ^ name
    else "examples/" ^ name
  in
  In_channel.with_open_text path In_channel.input_all
