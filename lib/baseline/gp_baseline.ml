module Router = Qec_lattice.Router
module Task = Autobraid.Task
module Scheduler = Autobraid.Scheduler
module Stack_finder = Autobraid.Stack_finder
module CB = Autobraid.Comm_backend

type route_kind = Dimension_ordered | Astar

type options = {
  initial : Autobraid.Initial_layout.method_;
  router : route_kind;
  seed : int;
  placement_override : Qec_lattice.Placement.t option;
}

let default_options =
  {
    (* Plain bisection: the degree-2 snake embedding is part of AutoBraid's
       initial-placement analysis, not of the MICRO'17 baseline. *)
    initial = Autobraid.Initial_layout.Bisected;
    router = Dimension_ordered;
    seed = 11;
    placement_override = None;
  }

(* One greedy round: shortest operand distance first, id breaks ties; each
   gate takes its route if one is free, else waits for a later round. *)
let round_route options : Scheduler.round_route =
 fun ~round:_ ~router ~occ ~placement tasks ->
  (* Dimension-ordered (braidflash-style) routing by default: no detours;
     a blocked L-route means the braid stalls until a later round. The A*
     variant is an ablation. *)
  let route_one ~src_cell ~dst_cell =
    match options.router with
    | Dimension_ordered ->
      Router.route_dimension_ordered_and_reserve router occ ~src_cell ~dst_cell
    | Astar -> Router.route_and_reserve router occ ~src_cell ~dst_cell
  in
  let key (t : Task.t) = (Task.distance placement t, t.id) in
  let routed, failed =
    List.sort (fun a b -> compare (key a) (key b)) tasks
    |> List.partition_map (fun (task : Task.t) ->
           let src_cell, dst_cell = Task.cells placement task in
           match route_one ~src_cell ~dst_cell with
           | Some p -> Left (task, p)
           | None -> Right task)
  in
  {
    Stack_finder.routed;
    failed;
    ratio =
      float_of_int (List.length routed) /. float_of_int (List.length tasks);
  }

let run_traced ?(options = default_options) timing circuit =
  Scheduler.run_traced_with ~route:(round_route options)
    ~options:
      {
        Scheduler.default_options with
        variant = Sp;
        initial = options.initial;
        seed = options.seed;
        placement_override = options.placement_override;
      }
    timing circuit

let run ?options timing circuit = fst (run_traced ?options timing circuit)

let description =
  "greedy MICRO'17 baseline (GP w. initM): shortest-distance-first, no \
   retry, no SWAPs"

let register () =
  CB.register ~name:"greedy" ~description
    ~options:
      [
        {
          CB.Options.key = "router";
          kind = TEnum [ "dimension"; "astar" ];
          default = String "dimension";
          doc =
            "dimension = braidflash-style single-bend routes (the faithful \
             baseline), astar = detouring A* ablation";
        };
      ]
    (fun cfg opts ->
      let options =
        {
          initial = cfg.CB.initial;
          router =
            (match CB.Options.get_string opts "router" with
            | "astar" -> Astar
            | _ -> Dimension_ordered);
          seed = cfg.CB.seed;
          placement_override = cfg.CB.placement;
        }
      in
      {
        CB.name = "greedy";
        description;
        run =
          (fun timing circuit ->
            let result, trace = run_traced ~options timing circuit in
            { CB.backend = "greedy"; result; trace; stats = [] });
      })

(* Self-register when linked and referenced; name-only resolvers call
   [register] explicitly — see Qec_engine.Engine. *)
let () = register ()
