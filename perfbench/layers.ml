(* Per-layer metrics from one traced pass: the spans and counters the
   library emits (collected in memory) plus the observing route's timers.

   Spans are attributed by path, not by bare name: the library names both
   the SA anneal and the SWAP planner "layout_optimization", and only the
   parent tells them apart (initial_layout vs routing_rounds). *)

module Tel = Qec_telemetry.Telemetry
module Collector = Qec_telemetry.Collector

type span = { name : string; ancestors : string list; total : float; self : float }
(* [ancestors]: enclosing span names, innermost first. *)

(* Rebuild nesting per (domain, worker) lane: sorted by start time (a
   parent before a child opened at the same instant, a sibling that
   closed at that instant before both), each span's parent is the nearest
   earlier span one level shallower. *)
let with_paths (spans : Tel.span list) =
  let lanes = Hashtbl.create 4 in
  List.iter
    (fun (s : Tel.span) ->
      let k = (s.domain, s.worker) in
      Hashtbl.replace lanes k (s :: Option.value ~default:[] (Hashtbl.find_opt lanes k)))
    spans;
  Hashtbl.fold
    (fun _ lane acc ->
      let lane =
        List.sort
          (fun (a : Tel.span) (b : Tel.span) ->
            compare (a.start_s, a.depth, a.total_s) (b.start_s, b.depth, b.total_s))
          lane
      in
      let stack = ref [] in
      List.fold_left
        (fun acc (s : Tel.span) ->
          while
            match !stack with
            | (d, _) :: _ -> d >= s.depth
            | [] -> false
          do
            stack := List.tl !stack
          done;
          let ancestors = List.map snd !stack in
          stack := (s.depth, s.span_name) :: !stack;
          { name = s.span_name; ancestors; total = s.total_s; self = s.self_s }
          :: acc)
        acc lane)
    lanes []

let parent s = match s.ancestors with p :: _ -> Some p | [] -> None

let sum f spans = List.fold_left (fun acc s -> acc +. f s) 0. spans

let is_plan s = s.name = "layout_optimization" && parent s = Some "routing_rounds"

(* The braid driver's own loop: routing_rounds outside the lookahead
   backend, whose routing goes through its own route function. *)
let is_braid_driver s =
  s.name = "routing_rounds" && not (List.mem "lookahead.run" s.ancestors)

let metrics col (probe : Observe.t) =
  let spans = with_paths (Collector.spans col) in
  let named n = List.filter (fun s -> s.name = n) spans in
  let counter = Collector.counter col in
  let hist_sum n =
    match Collector.histogram_opt col n with Some h -> h.Tel.sum | None -> 0.
  in
  let plans = List.filter is_plan spans in
  let anneals =
    List.filter
      (fun s -> s.name = "layout_optimization" && parent s = Some "initial_layout")
      spans
  in
  let braid_plans =
    List.filter (fun s -> not (List.mem "lookahead.run" s.ancestors)) plans
  in
  let driver =
    sum (fun s -> s.total) (List.filter is_braid_driver spans)
    -. sum (fun s -> s.total) braid_plans
    -. Observe.find_s probe -. Observe.order_s probe -. Observe.build_s probe
  in
  let routes = counter "router.routes" in
  let failures = counter "router.route_failures" in
  let routed = counter "stack_finder.gates_routed" in
  let failed = counter "stack_finder.gates_failed" in
  let hits =
    counter "engine.placement_cache.memory_hits"
    + counter "engine.placement_cache.disk_hits"
  in
  let misses = counter "engine.placement_cache.misses" in
  let f = float_of_int in
  [
    ("partition.s", sum (fun s -> s.self) (named "initial_layout"));
    ("anneal.s", sum (fun s -> s.total) anneals);
    ("anneal.proposals", f (counter "anneal.proposals"));
    ("anneal.accept_ratio", Metrics.ratio (counter "anneal.accepted") (counter "anneal.proposals"));
    ("interference.build_s", Observe.build_s probe);
    ("interference.nodes", f (Observe.nodes probe));
    (* find calls planned_order once, which calls Interference.build once:
       report each net of the one it contains, so the three add up to the
       time spent in find. *)
    ("stack_finder.find_s", Observe.find_s probe -. Observe.order_s probe);
    ("stack_finder.order_s", Observe.order_s probe -. Observe.build_s probe);
    ("stack_finder.rounds", f (Observe.rounds probe));
    ("stack_finder.gates_failed", f failed);
    ("stack_finder.routed_ratio", Metrics.ratio routed (routed + failed));
    ("stack_finder.retry_rounds", f (counter "stack_finder.retry_rounds"));
    ("router.routes", f routes);
    ("router.failures", f failures);
    ("router.fail_ratio", Metrics.ratio failures routes);
    ("router.expansions", f (counter "router.expansions"));
    ("router.expansions_per_route", Metrics.ratio (counter "router.expansions") routes);
    ("layout_opt.plan_s", sum (fun s -> s.total) plans);
    ("layout_opt.plans", f (List.length plans));
    ("layout_opt.candidates", f (counter "layout_opt.candidates_considered"));
    ("scheduler.swap_layers", f (counter "scheduler.swap_layers"));
    ("scheduler.driver_s", driver);
    ("compaction.s", sum (fun s -> s.total) (named "compaction"));
    ("compaction.calls", f (List.length (named "compaction")));
    ("engine.job_s", hist_sum "engine.job_s");
    ("engine.queue_wait_s", hist_sum "engine.queue_wait_s");
    ("engine.cache_hit_ratio", Metrics.ratio hits (hits + misses));
    ("engine.cache_misses", f misses);
  ]
