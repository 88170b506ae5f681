(* The transistor count as it was before it went hierarchical: flatten
   the whole chip on the channel layers and count the regions of
   [Sc_layout.Stats.channels].  Kept as the differential oracle for
   [Sc_layout.Stats.transistor_count] in test_drc.ml. *)

open Sc_layout

let transistor_count c =
  let on = Flatten.run_layers c Sc_tech.Layer.[ Poly; Diffusion; Buried ] in
  let layer l = Sc_geom.Rect.array_of_list on.(Sc_tech.Layer.index l) in
  let { Stats.region; _ } =
    Stats.channels ~poly:(layer Sc_tech.Layer.Poly)
      ~diffusion:(layer Sc_tech.Layer.Diffusion) ~buried:(layer Sc_tech.Layer.Buried)
  in
  let roots = ref 0 in
  Array.iteri (fun i r -> if r = i then incr roots) region;
  !roots

(* drawn area per layer over the flattened boxes, by [Layer.index] *)
let layer_areas c =
  let areas = Array.make Sc_tech.Layer.count 0 in
  List.iter
    (fun (fb : Flatten.flat_box) ->
      let i = Sc_tech.Layer.index fb.layer in
      areas.(i) <- areas.(i) + Sc_geom.Rect.area fb.rect)
    (Flatten.run c);
  areas
