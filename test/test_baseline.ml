(* Tests for the GP-w-initM baseline and its relationship to AutoBraid. *)

module S = Autobraid.Scheduler
module GP = Gp_baseline
module T = Qec_surface.Timing
module C = Qec_circuit.Circuit
module B = Qec_benchmarks

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let timing = T.make ~d:33 ()

let test_baseline_completes () =
  let r = GP.run timing (B.Qft.circuit 16) in
  check_bool "positive time" true (r.S.total_cycles > 0);
  check_bool "CP bound" true (r.S.critical_path_cycles <= r.S.total_cycles)

let test_baseline_never_swaps () =
  let r = GP.run timing (B.Qaoa.circuit 16) in
  check_int "no swap layers" 0 r.S.swap_layers;
  check_int "no swaps" 0 r.S.swaps_inserted

let test_baseline_serial_hits_cp () =
  let r = GP.run timing (B.Bv.circuit 20) in
  check_int "bv = CP" r.S.critical_path_cycles r.S.total_cycles

let test_baseline_cycle_ledger () =
  let r = GP.run timing (B.Qft.circuit 16) in
  let d = 33 in
  let local = r.S.rounds - r.S.braid_rounds in
  check_int "ledger" ((local * d) + (r.S.braid_rounds * 2 * d)) r.S.total_cycles

let test_baseline_deterministic () =
  let a = GP.run timing (B.Qaoa.circuit 16) in
  let b = GP.run timing (B.Qaoa.circuit 16) in
  check_int "same" a.S.total_cycles b.S.total_cycles

(* The paper's central comparison: autobraid-full never loses to the
   greedy baseline (given the best-p sweep the paper also performs). *)
let test_autobraid_beats_or_matches_baseline () =
  List.iter
    (fun c ->
      let base = GP.run timing c in
      let auto, _ = S.run_best_p ~grid_points:[ 0.0; 0.3 ] timing c in
      check_bool
        (C.name c ^ ": autobraid <= baseline")
        true
        (auto.S.total_cycles <= base.S.total_cycles))
    [
      B.Qft.circuit 16;
      B.Qft.circuit 36;
      B.Bv.circuit 16;
      B.Cc.circuit 16;
      B.Ising.circuit 16;
      B.Qaoa.circuit 16;
    ]

let test_speedup_grows_with_qft_size () =
  (* Table 2 shape: the QFT speedup over the baseline grows with size *)
  let ratio n =
    let base = GP.run timing (B.Qft.circuit n) in
    let auto = S.run timing (B.Qft.circuit n) in
    float_of_int base.S.total_cycles /. float_of_int auto.S.total_cycles
  in
  let small = ratio 16 and big = ratio 64 in
  check_bool
    (Printf.sprintf "speedup grows (%.2f -> %.2f)" small big)
    true (big >= small *. 0.95)

let test_identity_ablation_no_better () =
  (* initM (partitioned) seeding should not lose badly to identity *)
  let opts_id = { GP.default_options with initial = Autobraid.Initial_layout.Identity } in
  let with_init = GP.run timing (B.Qaoa.circuit 24) in
  let without = GP.run ~options:opts_id timing (B.Qaoa.circuit 24) in
  check_bool "initM helps or is close" true
    (float_of_int with_init.S.total_cycles
    <= 1.15 *. float_of_int without.S.total_cycles)

(* Known answers at d = 5, seed 11: the greedy schedule is the denominator
   of every headline ratio, so any drift here is a real change to the
   baseline, not noise. *)
let timing5 = T.make ~d:5 ()

let test_known_answer name circuit router cycles () =
  let r = GP.run ~options:{ GP.default_options with router } timing5 (circuit ()) in
  check_int (name ^ " cycles") cycles r.S.total_cycles

let known_answers =
  [
    ("qft100 dimension", (fun () -> B.Qft.circuit 100), GP.Dimension_ordered, 10410);
    ("qft100 astar", (fun () -> B.Qft.circuit 100), GP.Astar, 7690);
    ( "urf2_277 dimension",
      (fun () -> B.Building_blocks.by_name "urf2_277"),
      GP.Dimension_ordered,
      92365 );
  ]

(* The baseline's trace is the schedule [run] reports: it replays clean,
   the independent certifier accepts it, and its cycles are [run]'s. *)
let test_trace_certifies router () =
  List.iter
    (fun c ->
      let options = { GP.default_options with router } in
      let r = GP.run ~options timing c in
      let traced, trace = GP.run_traced ~options timing c in
      let what = C.name c in
      check_int (what ^ ": run_traced cycles = run cycles") r.S.total_cycles
        traced.S.total_cycles;
      check_int (what ^ ": Trace.check clean") 0
        (List.length (Autobraid.Trace.check trace));
      let cert =
        Qec_verify.Certifier.certify ~backend:"greedy" ~result:traced
          timing trace
      in
      check_bool
        (what ^ ": certifies clean: " ^ Qec_verify.Certifier.to_summary cert)
        true (Qec_verify.Certifier.ok cert))
    [ B.Qft.circuit 16; B.Qaoa.circuit 16; B.Bv.circuit 20 ]

let () =
  Alcotest.run "baseline"
    [
      ( "known answers",
        List.map
          (fun (name, circuit, router, cycles) ->
            Alcotest.test_case name `Quick
              (test_known_answer name circuit router cycles))
          known_answers );
      ( "gp baseline",
        [
          Alcotest.test_case "completes" `Quick test_baseline_completes;
          Alcotest.test_case "never swaps" `Quick test_baseline_never_swaps;
          Alcotest.test_case "serial = CP" `Quick test_baseline_serial_hits_cp;
          Alcotest.test_case "cycle ledger" `Quick test_baseline_cycle_ledger;
          Alcotest.test_case "deterministic" `Quick test_baseline_deterministic;
          Alcotest.test_case "trace certifies (dimension)" `Quick
            (test_trace_certifies GP.Dimension_ordered);
          Alcotest.test_case "trace certifies (astar)" `Quick
            (test_trace_certifies GP.Astar);
        ] );
      ( "comparison",
        [
          Alcotest.test_case "autobraid wins or ties" `Slow test_autobraid_beats_or_matches_baseline;
          Alcotest.test_case "qft speedup grows" `Slow test_speedup_grows_with_qft_size;
          Alcotest.test_case "initM ablation" `Quick test_identity_ablation_no_better;
        ] );
    ]
