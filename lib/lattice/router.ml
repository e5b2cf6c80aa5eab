module Tel = Qec_telemetry.Telemetry

type t = {
  grid : Grid.t;
  vside : int; (* Grid.side + 1, for inline vertex coordinate math *)
  gen : int array; (* generation stamp per vertex *)
  gscore : int array;
  came_from : int array;
  closed : bool array;
  mutable generation : int;
  pq : Qec_util.Heap.Int_pq.t; (* open list *)
  goal_ids : int array; (* up to 4 usable target corners *)
  goal_x : int array;
  goal_y : int array;
  mutable n_goals : int;
}

let create grid =
  let n = Grid.num_vertices grid in
  {
    grid;
    vside = Grid.side grid + 1;
    gen = Array.make n 0;
    gscore = Array.make n 0;
    came_from = Array.make n (-1);
    closed = Array.make n false;
    generation = 0;
    pq = Qec_util.Heap.Int_pq.create ~capacity:64 ();
    goal_ids = Array.make 4 (-1);
    goal_x = Array.make 4 0;
    goal_y = Array.make 4 0;
    n_goals = 0;
  }

let grid t = t.grid

let fresh t v =
  if t.gen.(v) <> t.generation then begin
    t.gen.(v) <- t.generation;
    t.gscore.(v) <- max_int;
    t.came_from.(v) <- -1;
    t.closed.(v) <- false
  end

(* Arena A*: multi-source multi-target, FIFO tie-breaks. The inner loop
   touches only preallocated flat arrays: goals live in fixed 4-slot
   arrays, neighbors are enumerated by index arithmetic (no list), the
   open list is the packed-key Int_pq (no node allocation), and heuristic
   / bounds checks use inline coordinate math (no tuples). The only
   allocation on a successful route is the returned path. Its expansion
   order is pinned against the pre-rewrite list-based search kept in
   test/reference_router.ml. *)
let route ?bounds t occ ~src_cell ~dst_cell =
  if src_cell = dst_cell then invalid_arg "Router.route: same cell";
  if Occupancy.grid occ != t.grid then
    invalid_arg "Router.route: occupancy grid mismatch";
  t.generation <- t.generation + 1;
  Qec_util.Heap.Int_pq.clear t.pq;
  let vside = t.vside in
  (* Bounds as inclusive vertex-coordinate ranges (whole grid if none). *)
  let bx0, bx1, by0, by1 =
    match bounds with
    | None -> (0, vside - 1, 0, vside - 1)
    | Some (b : Bbox.t) -> (b.x0, b.x1 + 1, b.y0, b.y1 + 1)
  in
  let usable v =
    Occupancy.is_free occ v
    &&
    let x = v mod vside and y = v / vside in
    bx0 <= x && x <= bx1 && by0 <= y && y <= by1
  in
  let expansions = ref 0 in
  t.n_goals <- 0;
  Array.iter
    (fun v ->
      if usable v then begin
        t.goal_ids.(t.n_goals) <- v;
        t.goal_x.(t.n_goals) <- v mod vside;
        t.goal_y.(t.n_goals) <- v / vside;
        t.n_goals <- t.n_goals + 1
      end)
    (Grid.cell_corners t.grid dst_cell);
  let result =
    if t.n_goals = 0 then None
    else begin
      let heuristic v =
        let x = v mod vside and y = v / vside in
        let best = ref max_int in
        for i = 0 to t.n_goals - 1 do
          let d = abs (x - t.goal_x.(i)) + abs (y - t.goal_y.(i)) in
          if d < !best then best := d
        done;
        !best
      in
      let is_goal v =
        let rec go i =
          i < t.n_goals && (t.goal_ids.(i) = v || go (i + 1))
        in
        go 0
      in
      Array.iter
        (fun v ->
          if usable v then begin
            fresh t v;
            if t.gscore.(v) > 0 then begin
              t.gscore.(v) <- 0;
              Qec_util.Heap.Int_pq.push t.pq ~priority:(heuristic v) v
            end
          end)
        (Grid.cell_corners t.grid src_cell);
      let reached = ref (-1) in
      let continue = ref true in
      while !continue do
        let v = Qec_util.Heap.Int_pq.pop_min t.pq in
        if v < 0 then continue := false
        else begin
          fresh t v;
          if not t.closed.(v) then begin
            if is_goal v then begin
              reached := v;
              continue := false
            end
            else begin
              t.closed.(v) <- true;
              incr expansions;
              let g' = t.gscore.(v) + 1 in
              let x = v mod vside and y = v / vside in
              (* Ascending vertex-id order, as Grid.vertex_neighbors
                 lists them: y-1, x-1, x+1, y+1. *)
              let expand nb =
                if usable nb then begin
                  fresh t nb;
                  if (not t.closed.(nb)) && g' < t.gscore.(nb) then begin
                    t.gscore.(nb) <- g';
                    t.came_from.(nb) <- v;
                    Qec_util.Heap.Int_pq.push t.pq
                      ~priority:(g' + heuristic nb)
                      nb
                  end
                end
              in
              if y > 0 then expand (v - vside);
              if x > 0 then expand (v - 1);
              if x + 1 < vside then expand (v + 1);
              if y + 1 < vside then expand (v + vside)
            end
          end
        end
      done;
      if !reached < 0 then None
      else begin
        let rec walk v acc =
          if t.came_from.(v) = -1 then v :: acc
          else walk t.came_from.(v) (v :: acc)
        in
        Some (Path.of_vertices t.grid (walk !reached []))
      end
    end
  in
  if Tel.enabled () then begin
    Tel.count "router.routes";
    Tel.count ~by:!expansions "router.expansions";
    match result with
    | Some p -> Tel.sample "router.path_length" (float_of_int (Path.length p))
    | None -> Tel.count "router.route_failures"
  end;
  result

let route_and_reserve ?bounds t occ ~src_cell ~dst_cell =
  match route ?bounds t occ ~src_cell ~dst_cell with
  | None -> None
  | Some p ->
    Occupancy.reserve_path occ p;
    Some p

(* Vertex ids along a straight channel segment from (x1,y1) to (x2,y2),
   endpoints included; the coordinates must share an axis. *)
let segment t (x1, y1) (x2, y2) =
  if x1 = x2 then
    let step = if y2 >= y1 then 1 else -1 in
    List.init
      (abs (y2 - y1) + 1)
      (fun i -> Grid.vertex_id t.grid ~x:x1 ~y:(y1 + (i * step)))
  else begin
    assert (y1 = y2);
    let step = if x2 >= x1 then 1 else -1 in
    List.init
      (abs (x2 - x1) + 1)
      (fun i -> Grid.vertex_id t.grid ~x:(x1 + (i * step)) ~y:y1)
  end

(* The candidates are the single-bend (L) routes from a source corner a
   to a destination corner b: x-first, then y-first (when a and b share an
   axis both are the same straight run, so the y-first copy never wins).
   They are tried by length — the Manhattan distance of the corner pair —
   and, among equal lengths, in generation order: source corner,
   destination corner, x-first before y-first. Freeness is tested by
   walking coordinates; only the winner is built as a path. Candidate c
   encodes source corner c / 8, destination corner (c / 2) mod 4 and
   orientation c mod 2 (0 = x-first). *)
let route_dimension_ordered t occ ~src_cell ~dst_cell =
  if src_cell = dst_cell then
    invalid_arg "Router.route_dimension_ordered: same cell";
  if Occupancy.grid occ != t.grid then
    invalid_arg "Router.route_dimension_ordered: occupancy grid mismatch";
  let vside = t.vside in
  let src = Grid.cell_corners t.grid src_cell
  and dst = Grid.cell_corners t.grid dst_cell in
  let free x y = Occupancy.is_free occ ((y * vside) + x) in
  (* Straight runs, both endpoints included. *)
  let rec free_row y x x1 =
    free x y && (x = x1 || free_row y (if x1 > x then x + 1 else x - 1) x1)
  in
  let rec free_col x y y1 =
    free x y && (y = y1 || free_col x (if y1 > y then y + 1 else y - 1) y1)
  in
  let length c =
    let a = src.(c / 8) and b = dst.(c / 2 mod 4) in
    abs ((a mod vside) - (b mod vside)) + abs ((a / vside) - (b / vside))
  in
  let free_l c =
    let a = src.(c / 8) and b = dst.(c / 2 mod 4) in
    let ax = a mod vside and ay = a / vside in
    let bx = b mod vside and by = b / vside in
    if c mod 2 = 0 then free_row ay ax bx && free_col bx ay by
    else free_col ax ay by && free_row by ax bx
  in
  (* A stable sort by length that allocates nothing: one pass over the
     candidates per length, shortest first. Lengths span at most five
     values, as corners of one cell differ by at most 1 per axis. *)
  let lo = ref max_int and hi = ref 0 in
  for c = 0 to 31 do
    lo := min !lo (length c);
    hi := max !hi (length c)
  done;
  let rec scan len c =
    if c = 32 then if len = !hi then None else scan (len + 1) 0
    else if length c = len && free_l c then Some c
    else scan len (c + 1)
  in
  let result =
    match scan !lo 0 with
    | None -> None
    | Some c ->
      let a = Grid.vertex_xy t.grid src.(c / 8)
      and b = Grid.vertex_xy t.grid dst.(c / 2 mod 4) in
      let bend = if c mod 2 = 0 then (fst b, snd a) else (fst a, snd b) in
      Some
        (Path.of_vertices t.grid
           (segment t a bend @ List.tl (segment t bend b)))
  in
  if Tel.enabled () then begin
    Tel.count "router.dim_ordered_routes";
    match result with
    | Some p -> Tel.sample "router.path_length" (float_of_int (Path.length p))
    | None -> Tel.count "router.dim_ordered_failures"
  end;
  result

let route_dimension_ordered_and_reserve t occ ~src_cell ~dst_cell =
  match route_dimension_ordered t occ ~src_cell ~dst_cell with
  | None -> None
  | Some p ->
    Occupancy.reserve_path occ p;
    Some p
