let area w h = w * h
let perimeter w h = 2 * (w + h)
