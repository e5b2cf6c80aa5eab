(* The pre-rewrite closure-and-list A*, kept as the differential oracle
   for Qec_lattice.Router.route (see test_router.ml): identical arguments,
   identical results, byte-identical expansion order. It owns its scratch
   arrays, so interleaving it with the production router is safe. *)

module Grid = Qec_lattice.Grid
module Bbox = Qec_lattice.Bbox
module Path = Qec_lattice.Path
module Occupancy = Qec_lattice.Occupancy

type t = {
  grid : Grid.t;
  gen : int array; (* generation stamp per vertex *)
  gscore : int array;
  came_from : int array;
  closed : bool array;
  mutable generation : int;
  open_list : int Poly_heap.t;
}

let create grid =
  let n = Grid.num_vertices grid in
  {
    grid;
    gen = Array.make n 0;
    gscore = Array.make n 0;
    came_from = Array.make n (-1);
    closed = Array.make n false;
    generation = 0;
    open_list = Poly_heap.create ();
  }

let fresh t v =
  if t.gen.(v) <> t.generation then begin
    t.gen.(v) <- t.generation;
    t.gscore.(v) <- max_int;
    t.came_from.(v) <- -1;
    t.closed.(v) <- false
  end

let in_bounds grid bounds v =
  match bounds with
  | None -> true
  | Some (b : Bbox.t) ->
    let x, y = Grid.vertex_xy grid v in
    b.x0 <= x && x <= b.x1 + 1 && b.y0 <= y && y <= b.y1 + 1

let route ?bounds t occ ~src_cell ~dst_cell =
  if src_cell = dst_cell then invalid_arg "Router.route: same cell";
  if Occupancy.grid occ != t.grid then
    invalid_arg "Router.route: occupancy grid mismatch";
  t.generation <- t.generation + 1;
  Poly_heap.clear t.open_list;
  let usable v = Occupancy.is_free occ v && in_bounds t.grid bounds v in
  let goals =
    Array.to_list (Grid.cell_corners t.grid dst_cell) |> List.filter usable
  in
  if goals = [] then None
  else begin
    let is_goal = Array.make 4 (-1) in
    List.iteri (fun i v -> is_goal.(i) <- v) goals;
    let goal v = Array.exists (( = ) v) is_goal in
    let heuristic v =
      List.fold_left
        (fun acc g -> min acc (Grid.vertex_distance t.grid v g))
        max_int goals
    in
    let push v g =
      fresh t v;
      if g < t.gscore.(v) then begin
        t.gscore.(v) <- g;
        Poly_heap.push t.open_list ~priority:(g + heuristic v) v
      end
    in
    Array.iter
      (fun v -> if usable v then push v 0)
      (Grid.cell_corners t.grid src_cell);
    let rec search () =
      match Poly_heap.pop_min t.open_list with
      | None -> None
      | Some v ->
        fresh t v;
        if t.closed.(v) then search ()
        else if goal v then Some v
        else begin
          t.closed.(v) <- true;
          let g' = t.gscore.(v) + 1 in
          List.iter
            (fun nb ->
              if usable nb then begin
                fresh t nb;
                if (not t.closed.(nb)) && g' < t.gscore.(nb) then begin
                  t.gscore.(nb) <- g';
                  t.came_from.(nb) <- v;
                  Poly_heap.push t.open_list ~priority:(g' + heuristic nb) nb
                end
              end)
            (Grid.vertex_neighbors t.grid v);
          search ()
        end
    in
    match search () with
    | None -> None
    | Some reached ->
      let rec walk v acc =
        if t.came_from.(v) = -1 then v :: acc else walk t.came_from.(v) (v :: acc)
      in
      Some (Path.of_vertices t.grid (walk reached []))
  end
