let () = assert (Fix.Shapes.perimeter 1 1 = 4)
