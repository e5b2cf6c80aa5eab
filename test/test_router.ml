(* Tests for A* and dimension-ordered routing. *)

module Grid = Qec_lattice.Grid
module Path = Qec_lattice.Path
module Occupancy = Qec_lattice.Occupancy
module Router = Qec_lattice.Router
module Bbox = Qec_lattice.Bbox

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let grid = Grid.create 6
let router = Router.create grid
let reference = Reference_router.create grid
let cell x y = Grid.cell_id grid ~x ~y
let vid x y = Grid.vertex_id grid ~x ~y

let fresh_occ () = Occupancy.create grid

let test_route_exists_empty () =
  let occ = fresh_occ () in
  match Router.route router occ ~src_cell:(cell 0 0) ~dst_cell:(cell 5 5) with
  | None -> Alcotest.fail "no path on empty grid"
  | Some p ->
    check_bool "connects" true
      (Path.connects_cells grid p (cell 0 0) (cell 5 5));
    (* shortest: best corners are (1,1) and (5,5): distance 8, 9 vertices *)
    check_int "shortest" 9 (Path.length p)

let test_route_adjacent_cells () =
  let occ = fresh_occ () in
  match Router.route router occ ~src_cell:(cell 0 0) ~dst_cell:(cell 1 0) with
  | None -> Alcotest.fail "no path between neighbors"
  | Some p -> check_int "single shared corner" 1 (Path.length p)

let test_route_same_cell_invalid () =
  let occ = fresh_occ () in
  check_bool "same cell" true
    (match Router.route router occ ~src_cell:3 ~dst_cell:3 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let wall occ x_at =
  (* occupy the whole vertical channel column x = x_at *)
  for y = 0 to Grid.side grid do
    let p = Path.of_vertices grid [ vid x_at y ] in
    Occupancy.reserve_path occ p
  done

let test_route_detours () =
  let occ = fresh_occ () in
  (* wall column 3, leaving a hole at the bottom (y = 6) *)
  for y = 0 to 5 do
    Occupancy.reserve_path occ (Path.of_vertices grid [ vid 3 y ])
  done;
  match Router.route router occ ~src_cell:(cell 0 0) ~dst_cell:(cell 5 0) with
  | None -> Alcotest.fail "should detour through the hole"
  | Some p ->
    check_bool "uses the hole" true (Path.mem p (vid 3 6));
    check_bool "valid path" true
      (Path.connects_cells grid p (cell 0 0) (cell 5 0))

let test_route_blocked () =
  let occ = fresh_occ () in
  wall occ 3;
  check_bool "disconnected" true
    (Router.route router occ ~src_cell:(cell 0 0) ~dst_cell:(cell 5 0) = None)

let test_route_blocked_corners () =
  let occ = fresh_occ () in
  (* occupy all four corners of the target cell *)
  Array.iter
    (fun v -> Occupancy.reserve_path occ (Path.of_vertices grid [ v ]))
    (Grid.cell_corners grid (cell 4 4));
  check_bool "no free corner" true
    (Router.route router occ ~src_cell:(cell 0 0) ~dst_cell:(cell 4 4) = None)

let test_route_and_reserve () =
  let occ = fresh_occ () in
  (match Router.route_and_reserve router occ ~src_cell:(cell 0 0) ~dst_cell:(cell 2 0) with
  | None -> Alcotest.fail "route failed"
  | Some p ->
    List.iter
      (fun v -> check_bool "reserved" false (Occupancy.is_free occ v))
      (Path.vertices p));
  (* a second identical route must pick different vertices or fail *)
  match Router.route_and_reserve router occ ~src_cell:(cell 0 0) ~dst_cell:(cell 2 0) with
  | None -> ()
  | Some p2 ->
    check_int "occupancy consistent"
      (Occupancy.occupied_count occ)
      (Occupancy.occupied_count occ);
    check_bool "valid" true (Path.connects_cells grid p2 (cell 0 0) (cell 2 0))

let test_route_bounds () =
  let occ = fresh_occ () in
  let bounds = Bbox.of_cells (0, 0) (2, 0) in
  (match Router.route ~bounds router occ ~src_cell:(cell 0 0) ~dst_cell:(cell 2 0) with
  | None -> Alcotest.fail "in-bounds route failed"
  | Some p -> check_bool "stays inside" true (Path.within_bbox grid bounds p));
  (* Block the in-bounds corridor with two plugs: (2,0) stops the y=0 row,
     (1,1) stops the y=1 row. Bounded search must fail; the unbounded one
     detours below through y=2. *)
  Occupancy.reserve_path occ (Path.of_vertices grid [ vid 2 0 ]);
  Occupancy.reserve_path occ (Path.of_vertices grid [ vid 1 1 ]);
  check_bool "bounded fails" true
    (Router.route ~bounds router occ ~src_cell:(cell 0 0) ~dst_cell:(cell 2 0)
    = None);
  check_bool "unbounded detours" true
    (Router.route router occ ~src_cell:(cell 0 0) ~dst_cell:(cell 2 0) <> None)

let test_dimension_ordered_straight () =
  let occ = fresh_occ () in
  match
    Router.route_dimension_ordered router occ ~src_cell:(cell 0 0)
      ~dst_cell:(cell 3 0)
  with
  | None -> Alcotest.fail "no L route"
  | Some p ->
    check_bool "connects" true (Path.connects_cells grid p (cell 0 0) (cell 3 0));
    (* straight line: min corners (1,y) to (3,y): 3 vertices *)
    check_int "straight" 3 (Path.length p)

let test_dimension_ordered_bend () =
  let occ = fresh_occ () in
  match
    Router.route_dimension_ordered router occ ~src_cell:(cell 0 0)
      ~dst_cell:(cell 3 3)
  with
  | None -> Alcotest.fail "no L route"
  | Some p ->
    (* one bend: length = manhattan + 1 = (3-1)+(3-1)+1 = 5 *)
    check_int "L length" 5 (Path.length p)

let test_dimension_ordered_stalls () =
  let occ = fresh_occ () in
  (* Block both bend corridors between (0,0) and (2,2) but leave a detour:
     dimension-ordered must fail where A* succeeds. *)
  for i = 0 to 6 do
    if i <> 6 then Occupancy.reserve_path occ (Path.of_vertices grid [ vid 2 i ]);
    if i <> 0 && i <> 2 && i <> 6 then
      Occupancy.reserve_path occ (Path.of_vertices grid [ vid i 2 ])
  done;
  (* ensure target corners reachable: cells (0,0) and (4,4) *)
  let l = Router.route_dimension_ordered router occ ~src_cell:(cell 0 0)
            ~dst_cell:(cell 4 4) in
  let a = Router.route router occ ~src_cell:(cell 0 0) ~dst_cell:(cell 4 4) in
  check_bool "L stalls" true (l = None);
  check_bool "A* detours" true (a <> None)

let prop_route_valid =
  QCheck.Test.make ~name:"A* paths are valid corner-to-corner paths" ~count:200
    QCheck.(quad (int_bound 5) (int_bound 5) (int_bound 5) (int_bound 5))
    (fun (x1, y1, x2, y2) ->
      QCheck.assume ((x1, y1) <> (x2, y2));
      let occ = fresh_occ () in
      match
        Router.route router occ ~src_cell:(cell x1 y1) ~dst_cell:(cell x2 y2)
      with
      | None -> false (* empty grid must always route *)
      | Some p ->
        Path.connects_cells grid p (cell x1 y1) (cell x2 y2)
        && Path.length p
           >= Grid.cell_to_cell_vertex_distance grid (cell x1 y1) (cell x2 y2)
              + 1
           - 1)

let prop_route_shortest_on_empty =
  QCheck.Test.make ~name:"A* is shortest on the empty grid" ~count:200
    QCheck.(quad (int_bound 5) (int_bound 5) (int_bound 5) (int_bound 5))
    (fun (x1, y1, x2, y2) ->
      QCheck.assume ((x1, y1) <> (x2, y2));
      let occ = fresh_occ () in
      match
        Router.route router occ ~src_cell:(cell x1 y1) ~dst_cell:(cell x2 y2)
      with
      | None -> false
      | Some p ->
        Path.length p
        = Grid.cell_to_cell_vertex_distance grid (cell x1 y1) (cell x2 y2) + 1)

let prop_reserved_paths_disjoint =
  QCheck.Test.make ~name:"successively reserved paths are vertex-disjoint"
    ~count:100
    QCheck.(list_of_size (Gen.int_range 2 8)
              (pair (pair (int_bound 5) (int_bound 5))
                 (pair (int_bound 5) (int_bound 5))))
    (fun pairs ->
      let occ = fresh_occ () in
      let paths =
        List.filter_map
          (fun ((x1, y1), (x2, y2)) ->
            if (x1, y1) = (x2, y2) then None
            else
              Router.route_and_reserve router occ ~src_cell:(cell x1 y1)
                ~dst_cell:(cell x2 y2))
          pairs
      in
      let rec all_disjoint = function
        | [] -> true
        | p :: rest ->
          List.for_all (fun q -> Path.disjoint p q) rest && all_disjoint rest
      in
      all_disjoint paths)

(* Differential: the arena A* must be byte-identical to the pre-rewrite
   reference — same Some/None outcome and the same vertex sequence, since
   both must expand in the same order under FIFO tie-breaking. *)

let verts = function None -> None | Some p -> Some (Path.vertices p)

let test_differential_fixtures () =
  let queries occ =
    List.iter
      (fun (src, dst, bounds) ->
        Alcotest.(check (option (list int)))
          "arena = reference"
          (verts (Reference_router.route ?bounds reference occ ~src_cell:src ~dst_cell:dst))
          (verts (Router.route ?bounds router occ ~src_cell:src ~dst_cell:dst)))
      [
        (cell 0 0, cell 5 5, None);
        (cell 0 0, cell 1 0, None);
        (cell 2 3, cell 3 2, None);
        (cell 0 0, cell 2 0, Some (Bbox.of_cells (0, 0) (2, 0)));
        (cell 0 0, cell 4 4, Some (Bbox.of_cells (0, 0) (3, 3)));
      ]
  in
  queries (fresh_occ ());
  (* congested fixture: the detour wall from test_route_detours *)
  let occ = fresh_occ () in
  for y = 0 to 5 do
    Occupancy.reserve_path occ (Path.of_vertices grid [ vid 3 y ])
  done;
  queries occ;
  (* fully blocked *)
  let occ = fresh_occ () in
  wall occ 3;
  queries occ

let prop_route_matches_reference =
  QCheck.Test.make
    ~name:"arena A* = reference A* (random occupancy, random bounds)"
    ~count:500
    QCheck.(
      triple
        (quad (int_bound 5) (int_bound 5) (int_bound 5) (int_bound 5))
        (list_of_size (Gen.int_range 0 20) (int_bound 48))
        (option
           (quad (int_bound 5) (int_bound 5) (int_bound 5) (int_bound 5))))
    (fun ((x1, y1, x2, y2), blocked, bounds) ->
      QCheck.assume ((x1, y1) <> (x2, y2));
      let occ = fresh_occ () in
      List.iter
        (fun v -> if Occupancy.is_free occ v then
            Occupancy.reserve_path occ (Path.of_vertices grid [ v ]))
        blocked;
      let bounds =
        Option.map
          (fun (bx1, by1, bx2, by2) ->
            Bbox.of_cells (min bx1 bx2, min by1 by2) (max bx1 bx2, max by1 by2))
          bounds
      in
      let src_cell = cell x1 y1 and dst_cell = cell x2 y2 in
      verts (Router.route ?bounds router occ ~src_cell ~dst_cell)
      = verts (Reference_router.route ?bounds reference occ ~src_cell ~dst_cell))

(* Differential: the coordinate-walking dimension-ordered router must
   pick exactly the path the pre-rewrite version picks. That version,
   kept verbatim below, builds all 32 corner-pair L-paths as vertex lists
   and takes the first free one in a stable sort by length. *)

(* Vertex ids along a straight channel segment from (x1,y1) to (x2,y2),
   endpoints included; the coordinates must share an axis. *)
let segment grid (x1, y1) (x2, y2) =
  if x1 = x2 then
    let step = if y2 >= y1 then 1 else -1 in
    List.init
      (abs (y2 - y1) + 1)
      (fun i -> Grid.vertex_id grid ~x:x1 ~y:(y1 + (i * step)))
  else begin
    assert (y1 = y2);
    let step = if x2 >= x1 then 1 else -1 in
    List.init
      (abs (x2 - x1) + 1)
      (fun i -> Grid.vertex_id grid ~x:(x1 + (i * step)) ~y:y1)
  end

let l_candidates grid a b =
  let axy = Grid.vertex_xy grid a and bxy = Grid.vertex_xy grid b in
  let ax, ay = axy and bx, by = bxy in
  if a = b then [ [ a ] ]
  else if ax = bx || ay = by then [ segment grid axy bxy ]
  else begin
    let x_first = segment grid axy (bx, ay) @ List.tl (segment grid (bx, ay) bxy) in
    let y_first = segment grid axy (ax, by) @ List.tl (segment grid (ax, by) bxy) in
    [ x_first; y_first ]
  end

let route_dimension_ordered_reference grid occ ~src_cell ~dst_cell =
  let corners_src = Array.to_list (Grid.cell_corners grid src_cell)
  and corners_dst = Array.to_list (Grid.cell_corners grid dst_cell) in
  let candidates =
    List.concat_map
      (fun a -> List.concat_map (fun b -> l_candidates grid a b) corners_dst
                |> List.map (fun p -> (a, p)))
      corners_src
    |> List.map snd
  in
  let candidates =
    List.stable_sort
      (fun p q -> compare (List.length p) (List.length q))
      candidates
  in
  let free p = List.for_all (Occupancy.is_free occ) p in
  match List.find_opt free candidates with
  | None -> None
  | Some verts -> Some (Path.of_vertices grid verts)

let prop_dimension_ordered_matches_reference =
  QCheck.Test.make
    ~name:"dimension-ordered = list-based reference (sides 4-18, random \
           occupancy)"
    ~count:1000
    QCheck.(
      quad (int_range 4 18)
        (pair (int_bound 1_000_000) (int_bound 1_000_000))
        (int_bound 100) (int_bound 1_000_000))
    (fun (side, (src, dst), density, occ_seed) ->
      let grid = Grid.create side in
      let cells = side * side in
      let src_cell = src mod cells and dst_cell = dst mod cells in
      QCheck.assume (src_cell <> dst_cell);
      let occ = Occupancy.create grid in
      let rng = Random.State.make [| occ_seed |] in
      for v = 0 to Grid.num_vertices grid - 1 do
        if Random.State.int rng 100 < density then
          Occupancy.reserve_path occ (Path.of_vertices grid [ v ])
      done;
      verts
        (Router.route_dimension_ordered (Router.create grid) occ ~src_cell
           ~dst_cell)
      = verts (route_dimension_ordered_reference grid occ ~src_cell ~dst_cell))

let () =
  Alcotest.run "router"
    [
      ( "astar",
        [
          Alcotest.test_case "empty grid" `Quick test_route_exists_empty;
          Alcotest.test_case "adjacent cells" `Quick test_route_adjacent_cells;
          Alcotest.test_case "same cell" `Quick test_route_same_cell_invalid;
          Alcotest.test_case "detours" `Quick test_route_detours;
          Alcotest.test_case "blocked" `Quick test_route_blocked;
          Alcotest.test_case "blocked corners" `Quick test_route_blocked_corners;
          Alcotest.test_case "reserve" `Quick test_route_and_reserve;
          Alcotest.test_case "bounds" `Quick test_route_bounds;
          QCheck_alcotest.to_alcotest prop_route_valid;
          QCheck_alcotest.to_alcotest prop_route_shortest_on_empty;
          QCheck_alcotest.to_alcotest prop_reserved_paths_disjoint;
        ] );
      ( "differential",
        [
          Alcotest.test_case "fixtures: arena = reference" `Quick
            test_differential_fixtures;
          QCheck_alcotest.to_alcotest prop_route_matches_reference;
        ] );
      ( "dimension ordered",
        [
          Alcotest.test_case "straight" `Quick test_dimension_ordered_straight;
          Alcotest.test_case "bend" `Quick test_dimension_ordered_bend;
          Alcotest.test_case "stalls where A* detours" `Quick test_dimension_ordered_stalls;
          QCheck_alcotest.to_alcotest prop_dimension_ordered_matches_reference;
        ] );
    ]
