(* The repository benchmark. perfbench/run.py builds this and forwards its
   arguments; README.md documents workloads and metrics.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1
     perfbench.exe --smoke            (tiny inputs; asserts the output shape
                                       and that the correctness gates fire)
     perfbench.exe --record-expected  (prints expected.json to stdout)

   The last line of a run is the result object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1. *)

module J = Qec_report.Json

let host_json ~workload ~seed ~trace ~workers =
  J.Obj
    [
      ( "host",
        J.Obj
          [
            ("nproc", J.Int (Workload.nproc ()));
            ("ocaml", J.String Sys.ocaml_version);
            ("word_size", J.Int Sys.word_size);
            ("workers", J.Int workers);
            ("workload", J.String workload);
            ("seed", J.Int seed);
            ("trace", J.Bool trace);
          ] );
    ]

(* Metrics in catalogue order; a missing one is a bug in this program. *)
let ordered defs (o : Runs.outcome) =
  List.map
    (fun (d : Metrics.def) ->
      match List.assoc_opt d.name o.metrics with
      | Some v -> (d.name, v)
      | None -> failwith ("perfbench: metric not computed: " ^ d.name))
    defs

let run ~smoke ~reference ~seconds ~trace ?corrupt workload ~seed =
  let o =
    if trace then Runs.traced ~smoke ~reference ~seconds workload ~seed
    else Runs.timed ~smoke ~reference ~seconds ?corrupt workload ~seed
  in
  let defs = if trace then Metrics.per_layer else Metrics.end_to_end in
  let json =
    Metrics.result_json ~correct:o.correct ~attempted:o.attempted
      ~failed:o.failed (ordered defs o)
  in
  (o, json)

let print ~workload ~seed ~trace (o : Runs.outcome) json =
  List.iter print_endline o.rows;
  List.iter (fun e -> print_endline ("FAILED " ^ e)) o.errors;
  List.iter
    (fun (name, v) -> Printf.printf "%-30s %.6g %s\n" name v (Metrics.unit_of name))
    o.metrics;
  let workers = (Workload.make ~smoke:false workload ~seed).workers in
  print_endline (J.to_string (host_json ~workload ~seed ~trace ~workers));
  print_endline (J.to_string json)

(* ---------------- smoke ---------------- *)

(* The rendered result must parse back and carry every catalogue metric
   with its unit. *)
let shape_errors defs json =
  match J.of_string (J.to_string json) with
  | Error m -> [ "result does not parse: " ^ m ]
  | Ok j ->
    List.filter_map
      (fun (d : Metrics.def) ->
        match Option.bind (J.member "metrics" j) (J.member d.name) with
        | Some m
          when J.member "unit" m = Some (J.String d.unit_)
               && (match J.member "value" m with
                  | Some (J.Float _ | J.Int _) -> true
                  | _ -> false) ->
          None
        | _ -> Some (Printf.sprintf "metric %s missing or without unit %s" d.name d.unit_))
      defs

(* Per-layer metrics the smoke inputs must drive above 0, so a renamed
   span or counter fails here instead of reading as an idle layer. *)
let exercised workload =
  [
    "partition.s"; "anneal.s"; "anneal.proposals"; "interference.nodes";
    "stack_finder.find_s"; "stack_finder.rounds"; "router.routes";
    "router.expansions"; "baseline.run_s"; "verify.certify_s";
  ]
  @
  if workload = "batch-mix" then
    [ "compaction.calls"; "engine.job_s"; "engine.cache_misses" ]
  else []

let corrupt timing result trace =
  match
    List.find_map
      (fun k -> Qec_verify.Mutate.apply k timing result trace)
      Qec_verify.Mutate.[ Double_execute; Path_overlap; Dropped_dependency ]
  with
  | Some rt -> rt
  | None -> failwith "smoke: no mutation applies to the trace"

let smoke ~reference =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          let o, json = run ~smoke:true ~reference ~seconds:0. ~trace workload ~seed:1 in
          let defs = if trace then Metrics.per_layer else Metrics.end_to_end in
          Printf.printf "smoke result %s %d %s\n" workload (Bool.to_int trace)
            (J.to_string json);
          List.iter (fail "%s trace=%b: %s" workload trace) (shape_errors defs json);
          List.iter (fail "%s trace=%b: %s" workload trace) o.errors;
          if trace then
            List.iter
              (fun m ->
                if List.assoc m o.metrics <= 0. then
                  fail "%s: %s is not above 0" workload m)
              (exercised workload);
          if o.attempted < 1 || o.failed <> 0 then
            fail "%s trace=%b: %d of %d compiles failed" workload trace o.failed
              o.attempted)
        [ false; true ])
    Workload.names;
  let o, _ =
    run ~smoke:true ~reference ~seconds:0. ~trace:false ~corrupt "qft-paper" ~seed:1
  in
  let ok_ratio = List.assoc "ok_ratio" o.metrics in
  if ok_ratio >= 1. || o.correct then
    fail "a corrupted trace left ok_ratio at %g (correct=%b)" ok_ratio o.correct;
  let off_by_one = Hashtbl.copy reference in
  let key = "qft12/braid/11" in
  Hashtbl.replace off_by_one key (Hashtbl.find reference key + 1);
  let o, _ =
    run ~smoke:true ~reference:off_by_one ~seconds:0. ~trace:false "qft-paper"
      ~seed:1
  in
  let ok_ratio = List.assoc "ok_ratio" o.metrics in
  if ok_ratio >= 1. || o.correct then
    fail "a wrong reference left ok_ratio at %g (correct=%b)" ok_ratio o.correct;
  match !failures with
  | [] -> print_endline "perfbench smoke: OK"
  | fs ->
    List.iter (fun m -> prerr_endline ("perfbench smoke FAIL: " ^ m)) (List.rev fs);
    exit 1

(* ---------------- expected.json ---------------- *)

let record_expected () =
  Qec_engine.Engine.ensure_backends ();
  let specs = Workload.recordable_specs () in
  let braid =
    List.map
      (fun (s : Qec_engine.Spec.t) ->
        match Qec_engine.Engine.run_spec s with
        | Ok p -> (Workload.key ~backend:s.backend s, J.Int p.result.total_cycles)
        | Error e -> failwith e.message)
      specs
  in
  let greedy =
    List.map
      (fun (s : Qec_engine.Spec.t) ->
        let circuits = [ (s.circuit, Workload.circuit_of s) ] in
        ( Workload.key ~backend:"greedy" s,
          J.Int (Workload.run_greedy circuits s).total_cycles ))
      (Workload.greedy_specs specs)
  in
  print_endline
    (J.to_string ~indent:true
       (J.Obj
          [
            ("d", J.Int Qec_surface.Timing.default_d);
            ("cycles", J.Obj (List.sort_uniq compare (braid @ greedy)));
          ]))

(* ---------------- command line ---------------- *)

let usage =
  "perfbench --workload (qft-paper|shor-swap|batch-mix) --seed N --seconds S \
   --trace 0|1 | --smoke | --record-expected"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref nan and trace = ref 0 in
  let mode = ref `Run in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measurement");
      ("--trace", Arg.Set_int trace, "0|1 timed (0) or traced (1) run");
      ("--smoke", Arg.Unit (fun () -> mode := `Smoke), " tiny inputs, shape checks");
      ( "--record-expected",
        Arg.Unit (fun () -> mode := `Record),
        " print expected.json for the current schedules" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let reference () =
    Workload.load_reference ~scale:"BENCH_scale.json"
      ~expected:"perfbench/expected.json"
  in
  match !mode with
  | `Smoke -> smoke ~reference:(reference ())
  | `Record -> record_expected ()
  | `Run ->
    if
      (not (List.mem !workload Workload.names))
      || (!trace <> 0 && !trace <> 1)
      || Float.is_nan !seconds
    then begin
      prerr_endline usage;
      exit 2
    end;
    let trace = !trace = 1 in
    let o, json =
      run ~smoke:false ~reference:(reference ()) ~seconds:!seconds ~trace !workload
        ~seed:!seed
    in
    print ~workload:!workload ~seed:!seed ~trace o json
