let () =
  assert (Fix.Shapes.area 2 3 = 6);
  assert (Fix.Shapes.perimeter 2 3 = 10)
