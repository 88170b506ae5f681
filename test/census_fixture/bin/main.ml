let () = print_int (Fix.Shapes.perimeter 2 3)
