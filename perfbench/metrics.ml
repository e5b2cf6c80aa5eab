(* The benchmark's metric catalogue, which BENCHMARK.json mirrors with
   each metric's direction and bound, and the statistics used to reduce
   samples. *)

type def = { name : string; unit_ : string }

let def name unit_ = { name; unit_ }

(* What a user of the compiler sees. Every workload reports all six. *)
let end_to_end =
  [
    def "compile_s" "s";
    def "cycles_geomean" "cycles";
    def "speedup_vs_greedy" "ratio";
    def "peak_rss_mb" "MB";
    def "setup_s" "s";
    def "ok_ratio" "ratio";
  ]

(* One or more per layer, measured by the traced run from outside the
   library: timed calls into public functions plus the counters and spans
   the library already emits. perfbench/README.md maps each to the
   end-to-end metric it should move. *)
let per_layer =
  [
    def "partition.s" "s";
    def "anneal.s" "s";
    def "anneal.proposals" "count";
    def "anneal.accept_ratio" "ratio";
    def "interference.build_s" "s";
    def "interference.nodes" "count";
    def "stack_finder.find_s" "s";
    def "stack_finder.order_s" "s";
    def "stack_finder.rounds" "count";
    def "stack_finder.gates_failed" "count";
    def "stack_finder.routed_ratio" "ratio";
    def "stack_finder.retry_rounds" "count";
    def "router.routes" "count";
    def "router.failures" "count";
    def "router.fail_ratio" "ratio";
    def "router.expansions" "count";
    def "router.expansions_per_route" "count";
    def "layout_opt.plan_s" "s";
    def "layout_opt.plans" "count";
    def "layout_opt.candidates" "count";
    def "scheduler.swap_layers" "count";
    def "scheduler.driver_s" "s";
    def "compaction.s" "s";
    def "compaction.calls" "count";
    def "baseline.run_s" "s";
    def "verify.certify_s" "s";
    def "trace.check_s" "s";
    def "engine.job_s" "s";
    def "engine.queue_wait_s" "s";
    def "engine.cache_hit_ratio" "ratio";
    def "engine.cache_misses" "count";
    def "trace.overhead_s" "s";
  ]

let unit_of name =
  match List.find_opt (fun d -> d.name = name) (end_to_end @ per_layer) with
  | Some d -> d.unit_
  | None -> invalid_arg ("Metrics.unit_of: unknown metric " ^ name)

let median = function
  | [] -> invalid_arg "Metrics.median: no samples"
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let geomean = function
  | [] -> invalid_arg "Metrics.geomean: no values"
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0. xs
      /. float_of_int (List.length xs))

(* [num / den], 0 when nothing was attempted. *)
let ratio num den =
  if den = 0 then 0. else float_of_int num /. float_of_int den

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* The process's peak resident set so far (Linux VmHWM), in MiB. With
   several domains OCaml 5.1's [Gc.top_heap_words] is not a process-wide
   maximum: it fell between batch passes. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line -> (
          match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
          | kb -> float_of_int kb /. 1024.
          | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> find ())
        | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
      in
      find ())

(* The result object, the last line a run prints. *)
let result_json ~correct ~attempted ~failed values =
  let open Qec_report.Json in
  Obj
    [
      ("correct", Bool correct);
      ("attempted", Int attempted);
      ("failed", Int failed);
      ( "metrics",
        Obj
          (List.map
             (fun (name, v) ->
               ( name,
                 Obj [ ("value", Float v); ("unit", String (unit_of name)) ] ))
             values) );
    ]
