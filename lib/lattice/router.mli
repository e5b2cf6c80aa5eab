(** A* shortest-path search on the channel graph.

    Finds a braiding path between two cells: from any {e free} corner
    vertex of the source cell to any free corner vertex of the target cell,
    through free vertices only. All 16 corner-pair configurations (§3.1)
    are explored at once by a multi-source / multi-target search.

    The router object owns scratch buffers sized to the grid, so repeated
    queries allocate almost nothing; expansions are deterministic (FIFO
    tie-breaking on equal f-scores). *)

type t

val create : Grid.t -> t

val grid : t -> Grid.t

val route :
  ?bounds:Bbox.t ->
  t ->
  Occupancy.t ->
  src_cell:int ->
  dst_cell:int ->
  Path.t option
(** Shortest free path, or [None] when the cells are disconnected under
    the current occupancy. With [bounds], the search is confined to the
    vertex footprint of the box (used to keep LLG-local paths inside their
    bounding box). If the two cells are adjacent and share a free corner,
    the result may be a single-vertex path. Raises [Invalid_argument] if
    [src_cell = dst_cell] or the occupancy's grid differs. *)

val route_and_reserve :
  ?bounds:Bbox.t ->
  t ->
  Occupancy.t ->
  src_cell:int ->
  dst_cell:int ->
  Path.t option
(** {!route}, and on success immediately claim the path's vertices. *)

val route_dimension_ordered :
  t -> Occupancy.t -> src_cell:int -> dst_cell:int -> Path.t option
(** Dimension-ordered (single-bend, "L-shaped") routing: for each pair of
    corners, try the x-then-y and y-then-x staircase with one bend; the
    first fully-free candidate wins. Candidates are ordered by length,
    then by source corner, destination corner, and x-first before
    y-first. No detours — this is how the MICRO'17 braidflash baseline
    routes, and why it stalls under congestion while an A* searcher finds
    a way around. Raises like {!route}. *)

val route_dimension_ordered_and_reserve :
  t -> Occupancy.t -> src_cell:int -> dst_cell:int -> Path.t option
