(* An observing stand-in for the registered braid backend, installed only
   for traced passes. It schedules through [Scheduler.run_traced_with
   ~route] with a route function that makes the same [Stack_finder.find]
   call the default round router makes, and times it. It also times
   read-only calls to [Interference.build] and [Stack_finder.planned_order]
   on the same tasks, which the library gives no span of their own. The
   traced run checks that its schedules equal the untraced ones, which
   proves the wrapper only observes. *)

module CB = Autobraid.Comm_backend
module S = Autobraid.Scheduler

(* Accumulated over every worker domain, hence atomics (nanoseconds). *)
type t = {
  build_ns : int Atomic.t;
  order_ns : int Atomic.t;
  find_ns : int Atomic.t;
  rounds : int Atomic.t;
  nodes : int Atomic.t;
}

let create () =
  {
    build_ns = Atomic.make 0;
    order_ns = Atomic.make 0;
    find_ns = Atomic.make 0;
    rounds = Atomic.make 0;
    nodes = Atomic.make 0;
  }

let add_s a s = ignore (Atomic.fetch_and_add a (int_of_float (s *. 1e9)))

let seconds a = float_of_int (Atomic.get a) /. 1e9

let build_s t = seconds t.build_ns
let order_s t = seconds t.order_ns
let find_s t = seconds t.find_ns
let rounds t = Atomic.get t.rounds
let nodes t = Atomic.get t.nodes

(* The braid registry entry's mapping from (config, options) to scheduler
   options, as Comm_backend registers it. *)
let braid_options (cfg : CB.config) opts =
  {
    S.variant =
      (match CB.Options.get_string opts "variant" with
      | "sp" -> S.Sp
      | _ -> S.Full);
    threshold_p = CB.Options.get_float opts "threshold_p";
    initial = cfg.CB.initial;
    swap_strategy = None;
    retry = true;
    confine_llg = true;
    compaction = false;
    lookahead = false;
    seed = cfg.CB.seed;
    placement_override = cfg.CB.placement;
  }

let route t (options : S.options) ~round:_ ~router ~occ ~placement tasks =
  let graph, build =
    Metrics.time (fun () -> Autobraid.Interference.build placement tasks)
  in
  let _, order =
    Metrics.time (fun () -> Autobraid.Stack_finder.planned_order placement tasks)
  in
  let outcome, find =
    Metrics.time (fun () ->
        Autobraid.Stack_finder.find ~retry:options.S.retry
          ~confine_llg:options.S.confine_llg router occ placement tasks)
  in
  add_s t.build_ns build;
  add_s t.order_ns order;
  add_s t.find_ns find;
  Atomic.incr t.rounds;
  ignore
    (Atomic.fetch_and_add t.nodes (Autobraid.Interference.original_count graph));
  outcome

(* Run [f] with "braid" resolved to the observing backend, then restore
   the original entry. Call only while no worker domain is alive: the
   registry is read without a lock. *)
let with_braid t f =
  let original = Option.get (CB.of_name "braid") in
  let register ctor =
    CB.register ~name:original.CB.name ~description:original.CB.description
      ~options:original.CB.options ~validate:original.CB.validate ctor
  in
  register (fun cfg opts ->
      let options = braid_options cfg opts in
      {
        CB.name = "braid";
        description = original.CB.description;
        run =
          (fun timing circuit ->
            let result, trace =
              S.run_traced_with ~route:(route t options) ~options timing circuit
            in
            { CB.backend = "braid"; result; trace; stats = [] });
      });
  Fun.protect ~finally:(fun () -> register original.CB.ctor) f
