(* The two kinds of run. A timed run (telemetry off) repeats passes for
   the run's length and reports the end-to-end metrics; a traced run pairs
   untraced and traced passes and reports the per-layer metrics. The
   greedy baseline and every correctness check run outside the timed
   passes: they are deterministic, so timing them would only add noise. *)

module Spec = Qec_engine.Spec
module Engine = Qec_engine.Engine

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  rows : string list;  (* one human-readable line per compiled spec *)
  errors : string list;
}

(* Set-up takes milliseconds, too short to time one at a time on a noisy
   host. A set-up sample repeats set-up until [setup_sample_s] has passed
   and returns the mean per set-up; setup_s is the median of
   [setup_samples] of them. *)
let setup_samples, setup_sample_s = (15, 0.1)

let setup_sample ~smoke name ~seed =
  let sample_s = if smoke then 0.001 else setup_sample_s in
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let rec go n =
    ignore (Sys.opaque_identity (Workload.setup ~smoke name ~seed));
    let dt = Unix.gettimeofday () -. t0 in
    if dt < sample_s then go (n + 1) else dt /. float_of_int n
  in
  go 1

(* Greedy cycles per (circuit, placement seed), run once, each checked
   against its reference. Returns the table, errors and total seconds. *)
let greedy reference (w : Workload.t) circuits =
  let runs =
    List.map
      (fun spec ->
        let r, dt = Metrics.time (fun () -> Workload.run_greedy circuits spec) in
        (spec, r.Autobraid.Scheduler.total_cycles, dt))
      (Workload.greedy_specs w.specs)
  in
  let errors =
    List.filter_map
      (fun (spec, got, _) ->
        let key = Workload.key ~backend:"greedy" spec in
        match Workload.expected_cycles reference key with
        | Some want when want = got -> None
        | Some want -> Some (Printf.sprintf "%s: %d cycles, reference %d" key got want)
        | None -> Some (key ^ ": no reference cycle count"))
      runs
  in
  let table = List.map (fun ((s : Spec.t), c, _) -> ((s.circuit, s.seed), c)) runs in
  (table, errors, List.fold_left (fun acc (_, _, dt) -> acc +. dt) 0. runs)

(* An [inspect] callback for [Pass.run] that checks every compile into
   [results]; the first one is [corrupt]ed when given (smoke test only). *)
let checker reference ?corrupt results =
  let corrupt = ref corrupt in
  fun spec outcome ->
    results := Pass.check reference ?corrupt:!corrupt spec outcome :: !results;
    corrupt := None

let rows (w : Workload.t) circuits passes greedy_table =
  List.mapi
    (fun i (s : Spec.t) ->
      let c = List.assoc s.circuit circuits in
      let times = List.map (fun (p : Pass.t) -> (List.nth p.compiles i).seconds) passes in
      Printf.sprintf "%-22s qubits %4d  gates %6d  cycles %7s  greedy %7d  median %.4f s over %d"
        (Option.value ~default:s.circuit s.id)
        (Qec_circuit.Circuit.num_qubits c) (Qec_circuit.Circuit.length c)
        (match (List.nth (List.hd passes).compiles i).cycles with
        | Some n -> string_of_int n
        | None -> "error")
        (List.assoc (s.circuit, s.seed) greedy_table)
        (Metrics.median times) (List.length times))
    w.specs

(* [step 0], [step 1], ... while one more step, at the mean step time so
   far, is expected to end within [seconds]; always at least one step. *)
let repeat ~seconds step =
  let t0 = Unix.gettimeofday () in
  let rec go acc n =
    let acc = step n :: acc in
    let elapsed = Unix.gettimeofday () -. t0 in
    if elapsed +. (elapsed /. float_of_int (n + 1)) <= seconds then go acc (n + 1)
    else List.rev acc
  in
  go [] 0

let errors_of results =
  List.filter_map (function Error m -> Some m | Ok _ -> None) results

let timed ~smoke ~reference ~seconds ?corrupt name ~seed =
  let w, circuits = Workload.setup ~smoke name ~seed in
  let results = ref [] in
  let inspect = checker reference ?corrupt results in
  let peak_rss_mb = ref 0. in
  (* Set-up samples are taken between passes, as many as the share of the
     run gone so far, so that they span the same stretch of the host's
     changing speed as the passes do: taken back to back, the medians of
     eleven samples of one process ranged 12-17 ms on qft-paper. The run's
     own set-up comes before the first pass, and the samples after the
     memory reading, so their garbage does not raise peak_rss_mb. *)
  let setup = ref [] in
  let sample_setup_upto n =
    while List.length !setup < n do
      setup := setup_sample ~smoke name ~seed :: !setup
    done
  in
  let t0 = Unix.gettimeofday () in
  let passes =
    repeat ~seconds (fun i ->
        let p = Pass.run w ~inspect in
        (* Memory as one compile (or one batch) costs it: later passes in
           the same process only add allocator growth that varies run to
           run. *)
        if i = 0 then peak_rss_mb := Metrics.peak_rss_mb ();
        let share = (Unix.gettimeofday () -. t0) /. seconds in
        sample_setup_upto
          (if share >= 1. then setup_samples
           else int_of_float (Float.ceil (share *. float_of_int setup_samples)));
        p)
  in
  sample_setup_upto setup_samples;
  let results = !results in
  let setup_s = Metrics.median !setup in
  let greedy_table, greedy_errors, _ = greedy reference w circuits in
  let cycles =
    List.filter_map
      (fun (c : Pass.compile) ->
        Option.map (fun n -> (c.spec, float_of_int n)) c.cycles)
      (List.hd passes).compiles
  in
  let or_zero f = function [] -> 0. | xs -> f xs in
  let errors = errors_of results @ greedy_errors in
  let failed = List.length (errors_of results) in
  let attempted = List.length results in
  {
    correct = errors = [];
    attempted;
    failed;
    metrics =
      [
        ("compile_s", Pass.compile_s w passes);
        ("cycles_geomean", or_zero Metrics.geomean (List.map snd cycles));
        ( "speedup_vs_greedy",
          or_zero Metrics.geomean
            (List.map
               (fun ((s : Spec.t), c) ->
                 float_of_int (List.assoc (s.circuit, s.seed) greedy_table) /. c)
               cycles) );
        ("peak_rss_mb", !peak_rss_mb);
        ("setup_s", setup_s);
        ("ok_ratio", Metrics.ratio (attempted - failed) attempted);
      ];
    rows = rows w circuits passes greedy_table;
    errors;
  }

(* An [inspect] callback that certifies and replay-checks each schedule,
   adding the times to [certify_s] and [check_s]. Batch jobs were
   certified once already inside the engine; this repeats that work on
   the same traces to time it. *)
let verify_timer certify_s check_s spec = function
  | Ok { Engine.trace = Some trace; result; backend; _ } ->
    let timing = Workload.timing spec in
    let _, dc =
      Metrics.time (fun () ->
          Qec_verify.Certifier.certify ~backend ~result timing trace)
    in
    let _, dk = Metrics.time (fun () -> Autobraid.Trace.check trace) in
    certify_s := !certify_s +. dc;
    check_s := !check_s +. dk
  | _ -> ()

let traced ~smoke ~reference ~seconds name ~seed =
  let w, circuits = Workload.setup ~smoke name ~seed in
  let results = ref [] in
  let check = checker reference results in
  let same_cycles (u : Pass.t) (t : Pass.t) =
    List.map2
      (fun (a : Pass.compile) (b : Pass.compile) ->
        match (a.cycles, b.cycles) with
        | Some x, Some y when x = y -> Ok x
        | x, y ->
          let show = function Some n -> string_of_int n | None -> "error" in
          Error
            (Printf.sprintf "%s: traced %s cycles, untraced %s"
               (Option.value ~default:a.spec.circuit a.spec.id) (show y) (show x)))
      u.compiles t.compiles
  in
  (* Per-layer figures come from the first traced pass; later pairs only
     sharpen the overhead estimate. *)
  let certify_s = ref 0. and check_s = ref 0. and layers = ref [] in
  let pairs =
    repeat ~seconds (fun i ->
        let u = Pass.run w ~inspect:check in
        let probe = Observe.create () in
        let col = Qec_telemetry.Collector.create () in
        let inspect =
          if i = 0 then verify_timer certify_s check_s else fun _ _ -> ()
        in
        let t =
          Observe.with_braid probe (fun () ->
              Qec_telemetry.Telemetry.with_sink
                (Qec_telemetry.Collector.sink col)
                (fun () -> Pass.run w ~inspect))
        in
        results := same_cycles u t @ !results;
        if i = 0 then layers := Layers.metrics col probe;
        (u, t))
  in
  let greedy_table, greedy_errors, greedy_s = greedy reference w circuits in
  let untraced = List.map fst pairs and traced = List.map snd pairs in
  let errors = errors_of !results @ greedy_errors in
  {
    correct = errors = [];
    attempted = List.length !results;
    failed = List.length (errors_of !results);
    metrics =
      !layers
      @ [
          ("baseline.run_s", greedy_s);
          ("verify.certify_s", !certify_s);
          ("trace.check_s", !check_s);
          ("trace.overhead_s", Pass.compile_s w traced -. Pass.compile_s w untraced);
        ];
    rows = rows w circuits untraced greedy_table;
    errors;
  }
