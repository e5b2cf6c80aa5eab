module Circuit = Qec_circuit.Circuit
module Gate = Qec_circuit.Gate
module Grid = Qec_lattice.Grid
module Path = Qec_lattice.Path
module Timing = Qec_surface.Timing
module St = Qec_surface.Surgery_timing
module Trace = Autobraid.Trace
module Task = Autobraid.Task
module Bitset = Qec_util.Bitset
module I = Invariant

type witness = {
  invariant : Invariant.t;
  round : int option;
  gate : int option;
  detail : string;
}

type t = {
  circuit_name : string;
  backend : string option;
  num_gates : int;
  num_rounds : int;
  cycles_computed : int;
  cycles_traced : int;
  cycles_reported : int option;
  witnesses : witness list;
}

(* The whole point of this module is to NOT trust the machinery under
   test, so everything below rebuilds its verdicts from the raw trace
   data: dependency order from per-qubit program order (not Dag),
   placement from a replayed qubit->cell array (not Placement), path
   validity from Grid adjacency (not Path's constructor invariant). *)

(* Program-order predecessors: for each gate, the immediately preceding
   gate on each of its operand qubits. Transitive order follows by
   induction, so checking immediate predecessors certifies the full
   dependency relation. *)
let program_preds circuit =
  let n = Circuit.length circuit in
  let last = Array.make (Circuit.num_qubits circuit) (-1) in
  let preds = Array.make n [] in
  for g = 0 to n - 1 do
    let qs = Gate.qubits (Circuit.gate circuit g) in
    preds.(g) <-
      List.sort_uniq compare
        (List.filter_map
           (fun q -> if last.(q) >= 0 then Some last.(q) else None)
           qs);
    List.iter (fun q -> last.(q) <- g) qs
  done;
  preds

let certify ?backend ?result timing (trace : Trace.t) =
  let ws = ref [] in
  let add invariant ?round ?gate fmt =
    Printf.ksprintf
      (fun detail -> ws := { invariant; round; gate; detail } :: !ws)
      fmt
  in
  let circuit = trace.Trace.circuit in
  let grid = trace.Trace.grid in
  let n_gates = Circuit.length circuit in
  let n_qubits = Circuit.num_qubits circuit in
  let preds = program_preds circuit in
  let executed = Array.make n_gates 0 in
  (* Replayed placement: qubit -> cell, advanced only by swap layers. *)
  let cells = Array.copy trace.Trace.initial_cells in
  let placement_ok =
    Array.length cells = n_qubits
    && Array.for_all (fun c -> c >= 0 && c < Grid.num_cells grid) cells
    &&
    let seen = Bitset.create (Grid.num_cells grid) in
    Array.for_all
      (fun c ->
        if Bitset.mem seen c then false
        else begin
          Bitset.add seen c;
          true
        end)
      cells
  in
  if not placement_ok then
    add I.Round_shape "initial placement is not an injective qubit->cell map";
  let qubit_in_range q = q >= 0 && q < n_qubits in
  let gate_in_range g = g >= 0 && g < n_gates in
  (* Exactly-once and dependency order, per gate occurrence. Execution
     order inside a round follows the trace's list order (braids/merges
     first, then locals), matching the replay semantics of rounds. *)
  let execute ~round g =
    if not (gate_in_range g) then
      add I.Gate_exactly_once ~round ~gate:g "gate id %d out of range" g
    else begin
      if executed.(g) > 0 then
        add I.Gate_exactly_once ~round ~gate:g "gate %d executed %d times" g
          (executed.(g) + 1)
      else
        List.iter
          (fun p ->
            if executed.(p) = 0 then
              add I.Gate_dependency_order ~round ~gate:g
                "gate %d runs before its program-order predecessor %d" g p)
          preds.(g);
      executed.(g) <- executed.(g) + 1
    end
  in
  let check_local ~round g =
    execute ~round g;
    if gate_in_range g && Gate.is_two_qubit (Circuit.gate circuit g) then
      add I.Round_shape ~round ~gate:g
        "two-qubit gate %d occupies a local slot" g
  in
  (* One braid/merge entry: arity, operand agreement, channel-path
     validity under the current placement. Returns the path's vertices
     for the disjointness sweep. *)
  let check_op ~round ~kind ((task : Task.t), path) =
    execute ~round task.Task.id;
    let vs = Path.vertices path in
    let operands_ok =
      if not (gate_in_range task.id) then false
      else begin
        let g = Circuit.gate circuit task.id in
        match Gate.two_qubit_operands g with
        | Some (a, b) when (a, b) = (task.q1, task.q2) -> true
        | Some _ ->
          add I.Round_shape ~round ~gate:task.id
            "%s task operands (q%d, q%d) mismatch the gate" kind task.q1
            task.q2;
          false
        | None ->
          add I.Round_shape ~round ~gate:task.id
            "gate %d scheduled as a %s is not a two-qubit gate" task.id kind;
          false
      end
    in
    (* Channel validity: distinct, consecutively adjacent vertices. The
       Path module enforces this at construction; re-deriving it here
       keeps the certificate independent of that invariant. *)
    let seen = Bitset.create (Grid.num_vertices grid) in
    let rec walk = function
      | [] -> add I.Path_channel ~round ~gate:task.id "empty %s path" kind
      | [ v ] -> if Bitset.mem seen v then dup v else Bitset.add seen v
      | v :: (w :: _ as rest) ->
        if Bitset.mem seen v then dup v
        else begin
          Bitset.add seen v;
          if not (List.mem w (Grid.vertex_neighbors grid v)) then
            add I.Path_channel ~round ~gate:task.id
              "path vertices %d and %d are not channel-adjacent" v w;
          walk rest
        end
    and dup v =
      add I.Path_channel ~round ~gate:task.id "path revisits vertex %d" v
    in
    walk vs;
    if
      operands_ok && placement_ok && qubit_in_range task.q1
      && qubit_in_range task.q2 && vs <> []
    then begin
      let corners q = Array.to_list (Grid.cell_corners grid cells.(q)) in
      let src = List.hd vs and tgt = List.nth vs (List.length vs - 1) in
      let ends a b = List.mem src (corners a) && List.mem tgt (corners b) in
      if not (ends task.q1 task.q2 || ends task.q2 task.q1) then
        add I.Path_channel ~round ~gate:task.id
          "path endpoints are not corners of the operand tiles of gate %d"
          task.id
    end;
    vs
  in
  let check_disjoint ~round ops_vertices =
    let used = Bitset.create (Grid.num_vertices grid) in
    List.iter
      (fun ((task : Task.t), vs) ->
        List.iter
          (fun v ->
            if Bitset.mem used v then
              add I.Path_disjoint ~round ~gate:task.Task.id
                "gate %d's path shares vertex %d with an earlier path in the \
                 round"
                task.Task.id v)
          (List.sort_uniq compare vs);
        List.iter (fun v -> Bitset.add used v) vs)
      ops_vertices
  in
  let check_swaps ~round swaps =
    let touched = Array.make (max n_qubits 1) false in
    List.iter
      (fun (a, b) ->
        List.iter
          (fun q ->
            if not (qubit_in_range q) then
              add I.Swap_legal ~round "swap qubit %d out of range" q
            else if touched.(q) then
              add I.Swap_legal ~round "swap layer touches qubit %d twice" q
            else touched.(q) <- true)
          [ a; b ];
        if a <> b && qubit_in_range a && qubit_in_range b then begin
          let ca = cells.(a) in
          cells.(a) <- cells.(b);
          cells.(b) <- ca
        end)
      swaps
  in
  let rounds = Array.of_list trace.Trace.rounds in
  let gate_qubits g =
    if gate_in_range g then Gate.qubits (Circuit.gate circuit g) else []
  in
  let touched_qubits = function
    | Trace.Local { gates } -> List.concat_map gate_qubits gates
    | Trace.Braid { braids = ops; locals }
    | Trace.Merge { merges = ops; locals; _ } ->
      List.concat_map (fun ((tk : Task.t), _) -> [ tk.q1; tk.q2 ]) ops
      @ List.concat_map gate_qubits locals
    | Trace.Swap_layer { swaps } -> List.concat_map (fun (a, b) -> [ a; b ]) swaps
  in
  Array.iteri
    (fun round r ->
      match r with
      | Trace.Local { gates } ->
        if gates = [] then add I.Round_shape ~round "empty local round"
        else List.iter (check_local ~round) gates
      | Trace.Braid { braids; locals } ->
        if braids = [] then add I.Round_shape ~round "braid round without braids"
        else
          check_disjoint ~round
            (List.map
               (fun op -> (fst op, check_op ~round ~kind:"braid" op))
               braids);
        List.iter (check_local ~round) locals
      | Trace.Merge { merges; locals; split_overlapped } ->
        if merges = [] then add I.Round_shape ~round "merge round without merges"
        else
          check_disjoint ~round
            (List.map
               (fun op -> (fst op, check_op ~round ~kind:"merge" op))
               merges);
        List.iter (check_local ~round) locals;
        if split_overlapped then begin
          let mq =
            List.concat_map (fun ((tk : Task.t), _) -> [ tk.q1; tk.q2 ]) merges
          in
          if round + 1 >= Array.length rounds then
            add I.Split_pipeline ~round
              "split overlap claimed on the final round"
          else
            List.iter
              (fun q ->
                if List.mem q mq then
                  add I.Split_pipeline ~round
                    "overlapped split and the next round both touch qubit %d"
                    q)
              (List.sort_uniq compare (touched_qubits rounds.(round + 1)))
        end
      | Trace.Swap_layer { swaps } ->
        if swaps = [] then add I.Round_shape ~round "empty swap layer"
        else check_swaps ~round swaps)
    rounds;
  Array.iteri
    (fun g n ->
      if n = 0 then add I.Gate_exactly_once ~gate:g "gate %d never executed" g)
    executed;
  (* Independent cycle accounting from round shapes and the shared cost
     model, cross-checked against Trace.cycles and the reported total. *)
  let cycles_computed =
    Array.fold_left
      (fun acc -> function
        | Trace.Local _ -> acc + Timing.single_qubit_cycles timing
        | Trace.Braid _ -> acc + Timing.braid_cycles timing
        | Trace.Swap_layer _ -> acc + Timing.swap_layer_cycles timing
        | Trace.Merge { split_overlapped; _ } ->
          acc + St.merge_cycles timing
          + if split_overlapped then 0 else St.split_cycles timing)
      0 rounds
  in
  let cycles_traced = Trace.cycles timing trace in
  if cycles_traced <> cycles_computed then
    add I.Cycle_account "Trace.cycles says %d, independent recomputation says %d"
      cycles_traced cycles_computed;
  let cycles_reported =
    Option.map (fun (r : Autobraid.Scheduler.result) -> r.total_cycles) result
  in
  (match cycles_reported with
  | Some reported when reported <> cycles_computed ->
    add I.Cycle_account
      "scheduler reports %d total cycles, independent recomputation says %d"
      reported cycles_computed
  | Some _ | None -> ());
  {
    circuit_name = Circuit.name circuit;
    backend;
    num_gates = n_gates;
    num_rounds = Array.length rounds;
    cycles_computed;
    cycles_traced;
    cycles_reported;
    witnesses = List.rev !ws;
  }

let ok t = t.witnesses = []

let witnesses_for t inv =
  List.filter (fun w -> w.invariant = inv) t.witnesses

let failed t =
  List.filter (fun inv -> witnesses_for t inv <> []) Invariant.all

let witness_to_string w =
  let where =
    match (w.round, w.gate) with
    | Some r, Some g -> Printf.sprintf "round %d, gate %d: " r g
    | Some r, None -> Printf.sprintf "round %d: " r
    | None, Some g -> Printf.sprintf "gate %d: " g
    | None, None -> ""
  in
  Printf.sprintf "%s: %s%s" (Invariant.id w.invariant) where w.detail

let to_summary t =
  let total = List.length Invariant.all in
  let subject =
    match t.backend with
    | Some b -> Printf.sprintf "%s (%s)" t.circuit_name b
    | None -> t.circuit_name
  in
  match t.witnesses with
  | [] ->
    Printf.sprintf "%s: certified (%d/%d invariants, %d rounds, %d cycles)"
      subject total total t.num_rounds t.cycles_computed
  | first :: _ ->
    Printf.sprintf "%s: FAILED %d/%d invariants (%d witnesses; first: %s)"
      subject
      (List.length (failed t))
      total
      (List.length t.witnesses)
      (witness_to_string first)
