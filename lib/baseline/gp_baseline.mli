(** Re-implementation of the baseline braiding scheduler — "GP w. initM"
    (Javadi-Abhari et al., MICRO'17, as characterized in the AutoBraid
    paper §4.1).

    Greedy policy: each round, sort the ready CX gates by operand distance
    (shortest first — shortest paths consume minimal routing resources) and
    route them in that order; gates that fail wait for the next round.
    The qubit placement comes from the graph partitioner ("initM") and is
    {e static} for the whole execution — no LLG analysis, no stack
    ordering, no retry, no SWAP insertion. The policy is a
    {!Autobraid.Scheduler.round_route} run through
    {!Autobraid.Scheduler.run_traced_with} ([Sp] variant), so frontier
    bookkeeping, latency accounting and the trace are the main
    scheduler's own and the comparison isolates the routing policy. *)

type route_kind =
  | Dimension_ordered
      (** braidflash-style single-bend routes — the faithful baseline *)
  | Astar  (** detouring A* — ablation isolating the ordering policy *)

type options = {
  initial : Autobraid.Initial_layout.method_;
      (** default [Bisected] — plain "metis" seeding without AutoBraid's
          degree-2 snake special case; [Identity] gives the unseeded
          ablation *)
  router : route_kind;  (** default [Dimension_ordered] *)
  seed : int;
  placement_override : Qec_lattice.Placement.t option;
      (** start from this placement instead of running [initial] (the
          engine's placement cache injects through it); default [None] *)
}

val default_options : options

val run :
  ?options:options ->
  Qec_surface.Timing.t ->
  Qec_circuit.Circuit.t ->
  Autobraid.Scheduler.result
(** Same result record as the main scheduler ([swap_layers] and
    [swaps_inserted] are always 0). [fst] of {!run_traced}. *)

val run_traced :
  ?options:options ->
  Qec_surface.Timing.t ->
  Qec_circuit.Circuit.t ->
  Autobraid.Scheduler.result * Autobraid.Trace.t
(** {!run}, with the per-round schedule it made ({!Autobraid.Trace}) —
    the input the independent certifier ([Qec_verify.Certifier])
    replays. *)

val register : unit -> unit
(** Enter the baseline into {!Autobraid.Comm_backend}'s registry as
    ["greedy"], declaring one option, [router] (["dimension"|"astar"]).
    The ctor maps the config's [initial], [seed] and [placement] onto
    {!options}; outcomes carry [backend = "greedy"]. Idempotent. Runs
    automatically when this module is linked and referenced; call it
    explicitly from code that only resolves backends by name. *)
