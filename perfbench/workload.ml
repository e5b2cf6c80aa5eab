(* The three workloads, their seeded inputs and the reference cycle counts
   every compile is checked against. README.md says why each was chosen. *)

module Spec = Qec_engine.Spec

type t = {
  specs : Spec.t list;
      (* compiled once per pass, in this order; each a braid, surgery or
         lookahead compile through the engine *)
  batch : bool;
      (* [true]: one pass is one [Engine.run_batch] over [specs] with a
         fresh placement cache; [false]: one [Engine.run_spec] per spec *)
  workers : int;  (* batch worker domains; 1 for single-spec workloads *)
}

let names = [ "qft-paper"; "shor-swap"; "batch-mix" ]

let nproc () = Domain.recommended_domain_count ()

let spec ?(backend = "braid") ?(certificate = false) ~seed circuit =
  {
    Spec.default with
    id = Some (Printf.sprintf "%s/%s/%d" circuit backend seed);
    circuit;
    backend;
    seed;
    outputs = { Spec.default.outputs with certificate };
  }

(* Placement seeds the batch draw picks from. Bounded so the committed
   reference (expected.json) covers every spec the draw can produce. *)
let batch_seeds = [| 11; 12; 13 |]

let batch_backends = [ "braid"; "surgery"; "lookahead" ]

(* Largest first, so the last jobs of a pass are short and the pass time
   does not hinge on where one long job lands. *)
let batch_pool ~smoke =
  if smoke then [ "lr24"; "qft16" ]
  else
    [ "urf2_277"; "qft50"; "adder64"; "qft32"; "lr24"; "qaoa12"; "qft16"; "bv64" ]

(* A braid job at threshold p = 0.8, the paper's SWAP trigger: a round
   that routes under that share of its gates spends a SWAP layer instead.
   At the default p no pool circuit reaches the SWAP planner; this job runs
   it about 300 times in under half a second, so the planner layer is
   measured on this workload too. *)
let swap_threshold_p = 0.8

let swap_spec ~seed =
  let s = spec ~certificate:true ~seed "qft100" in
  {
    s with
    id = Some (Printf.sprintf "qft100/braid@p%g/%d" swap_threshold_p seed);
    threshold_p = swap_threshold_p;
  }

(* The SWAP job, then every pool circuit on every batch backend: a braid
   sweep, then surgery, then lookahead, the same mix for every seed. The
   seed picks each circuit's placement seed, shared by its three jobs, so
   the braid job anneals and writes the placement cache and the other two
   read it. *)
let batch_specs ~smoke ~seed =
  let rng = Qec_util.Rng.create seed in
  let pool = batch_pool ~smoke in
  let seeds = List.map (fun c -> (c, Qec_util.Rng.choose rng batch_seeds)) pool in
  let backends = if smoke then [ "braid"; "lookahead" ] else batch_backends in
  let jobs =
    List.concat_map
      (fun backend ->
        List.map
          (fun circuit ->
            spec ~backend ~certificate:true ~seed:(List.assoc circuit seeds) circuit)
          pool)
      backends
  in
  if smoke then jobs else swap_spec ~seed:(Qec_util.Rng.choose rng batch_seeds) :: jobs

(* QFT-200/300 are the paper's Table 2 points and shor471 its Shor
   instance. Their compiled inputs do not depend on the seed: their cycles
   are pinned by the committed references. *)
let make ~smoke name ~seed =
  let single specs = { specs; batch = false; workers = 1 } in
  match name with
  | "qft-paper" ->
    single
      (List.map (spec ~seed:11)
         (if smoke then [ "qft12"; "qft16" ] else [ "qft200"; "qft300" ]))
  | "shor-swap" -> single [ spec ~seed:11 (if smoke then "shor11" else "shor471") ]
  | "batch-mix" ->
    { specs = batch_specs ~smoke ~seed; batch = true; workers = nproc () }
  | _ ->
    invalid_arg
      (Printf.sprintf "unknown workload %S (expected %s)" name
         (String.concat ", " names))

let circuit_of (s : Spec.t) =
  match Qec_engine.Engine.load_circuit s with
  | Ok c -> c
  | Error e -> failwith e.Qec_engine.Engine.message

(* One spec per distinct value of [key]. *)
let distinct key specs =
  List.sort_uniq (fun (a : Spec.t) (b : Spec.t) -> compare (key a) (key b)) specs

(* Set-up as a user pays it before the first compile: draw the inputs,
   register the backends, generate every circuit the workload names. *)
let setup ~smoke name ~seed =
  let w = make ~smoke name ~seed in
  Qec_engine.Engine.ensure_backends ();
  let circuits =
    List.map
      (fun (s : Spec.t) -> (s.circuit, circuit_of s))
      (distinct (fun s -> s.circuit) w.specs)
  in
  (w, circuits)

(* Greedy ignores the backend: one run per (circuit, placement seed). *)
let greedy_specs specs = distinct (fun s -> (s.circuit, s.seed)) specs

let timing (s : Spec.t) = Qec_surface.Timing.make ~d:s.d ()

let run_greedy circuits (s : Spec.t) =
  Gp_baseline.run
    ~options:{ Gp_baseline.default_options with seed = s.seed }
    (timing s) (List.assoc s.circuit circuits)

(* ---------------- references ---------------- *)

(* Reference cycle counts keyed "circuit/backend/seed" ("greedy" for the
   baseline). qft-paper's come from the committed BENCH_scale.json
   Table 2 sweep; the rest from perfbench/expected.json. *)
type reference = (string, int) Hashtbl.t

let key ~backend (s : Spec.t) =
  if s.threshold_p = Spec.default.threshold_p || backend = "greedy" then
    Printf.sprintf "%s/%s/%d" s.circuit backend s.seed
  else Printf.sprintf "%s/%s@p%g/%d" s.circuit backend s.threshold_p s.seed

module J = Qec_report.Json

let read_json path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error _ -> None
  | text -> ( match J.of_string text with Ok j -> Some j | Error _ -> None)

let int_at path j =
  match List.fold_left (fun j k -> Option.bind j (J.member k)) (Some j) path with
  | Some (J.Int n) -> Some n
  | _ -> None

(* Missing or malformed files simply leave their keys out: a compile with
   no reference counts as failed. *)
let load_reference ~scale ~expected : reference =
  let tbl = Hashtbl.create 128 in
  (match read_json scale with
  | Some j when int_at [ "d" ] j = Some Qec_surface.Timing.default_d -> (
    match J.member "circuits" j with
    | Some (J.List entries) ->
      List.iter
        (fun e ->
          match J.member "name" e with
          | Some (J.String name) ->
            List.iter
              (fun side ->
                Option.iter
                  (Hashtbl.replace tbl (Printf.sprintf "%s/%s/11" name side))
                  (int_at [ side; "total_cycles" ] e))
              [ "braid"; "greedy" ]
          | _ -> ())
        entries
    | _ -> ())
  | _ -> ());
  (match Option.bind (read_json expected) (J.member "cycles") with
  | Some (J.Obj kvs) ->
    List.iter
      (fun (k, v) ->
        match v with J.Int n -> Hashtbl.replace tbl k n | _ -> ())
      kvs
  | _ -> ());
  tbl

let expected_cycles (r : reference) k = Hashtbl.find_opt r k

(* Every spec the workloads can compile outside qft-paper, for
   regenerating expected.json after a deliberate schedule change. *)
let recordable_specs () =
  let batch ~smoke =
    List.concat_map
      (fun circuit ->
        Array.to_list batch_seeds
        |> List.concat_map (fun seed ->
               List.map
                 (fun backend -> spec ~backend ~seed circuit)
                 batch_backends))
      (batch_pool ~smoke)
  in
  (make ~smoke:false "shor-swap" ~seed:0).specs
  @ (make ~smoke:true "shor-swap" ~seed:0).specs
  @ (make ~smoke:true "qft-paper" ~seed:0).specs
  @ batch ~smoke:false
  @ List.map (fun seed -> swap_spec ~seed) (Array.to_list batch_seeds)
