(* One pass = every spec of a workload compiled once through the engine,
   the way `autobraid compile` / `autobraid batch` run them. Checking a
   pass happens after it, outside the timed window. *)

module Engine = Qec_engine.Engine
module Spec = Qec_engine.Spec
module Certifier = Qec_verify.Certifier

type compile = { spec : Spec.t; seconds : float; cycles : int option }

type t = { seconds : float; compiles : compile list }

let cycles_of = function
  | Ok (p : Engine.payload) -> Some p.result.Autobraid.Scheduler.total_cycles
  | Error _ -> None

(* [inspect] sees each compile's full outcome after the clock has stopped;
   the pass keeps only times and cycles, so traces from earlier passes do
   not inflate the heap of later ones. A full major collection before
   each timed call keeps one sample's garbage off the next one's clock. *)
let run (w : Workload.t) ~inspect =
  if w.batch then begin
    Gc.full_major ();
    let cache = Qec_engine.Placement_cache.create () in
    let jobs, seconds =
      Metrics.time (fun () -> Engine.run_batch ~jobs:w.workers ~cache w.specs)
    in
    {
      seconds;
      compiles =
        List.map
          (fun (j : Engine.job) ->
            inspect j.spec j.outcome;
            { spec = j.spec; seconds = j.elapsed_s; cycles = cycles_of j.outcome })
          jobs;
    }
  end
  else
    let compiles =
      List.map
        (fun spec ->
          Gc.full_major ();
          let outcome, seconds = Metrics.time (fun () -> Engine.run_spec spec) in
          inspect spec outcome;
          { spec; seconds; cycles = cycles_of outcome })
        w.specs
    in
    {
      seconds = List.fold_left (fun acc (c : compile) -> acc +. c.seconds) 0. compiles;
      compiles;
    }

(* compile_s: a batch workload's pass is one user-visible operation, so
   its time is the median pass; a single-spec workload compiles each
   circuit separately, so it is the sum over circuits of each circuit's
   median. *)
let compile_s (w : Workload.t) passes =
  if w.batch then Metrics.median (List.map (fun p -> p.seconds) passes)
  else
    List.mapi
      (fun i _ ->
        Metrics.median
          (List.map (fun p -> (List.nth p.compiles i).seconds) passes))
      w.specs
    |> List.fold_left ( +. ) 0.

(* A compile counts as correct when its trace certifies under the
   independent certifier and its cycles equal the committed reference.
   Batch jobs carry the certificate their engine job computed; anything
   else (or a [corrupt]ed trace, for the smoke test) is certified here.
   Returns the cycle count or the reason it failed. *)
let check reference ?corrupt (spec : Spec.t) outcome =
  match outcome with
  | Error e -> Error (Printf.sprintf "%s: %s" e.Engine.kind e.Engine.message)
  | Ok p -> (
    let timing = Workload.timing spec in
    let cert =
      match (corrupt, p.Engine.certificate, p.Engine.trace) with
      | None, Some cert, _ -> Some cert
      | _, _, None -> None
      | Some f, _, Some trace ->
        let result, trace = f timing p.Engine.result trace in
        Some (Certifier.certify ~backend:p.Engine.backend ~result timing trace)
      | None, None, Some trace ->
        Some
          (Certifier.certify ~backend:p.Engine.backend ~result:p.Engine.result
             timing trace)
    in
    let got = p.Engine.result.Autobraid.Scheduler.total_cycles in
    let key = Workload.key ~backend:spec.backend spec in
    match (cert, Workload.expected_cycles reference key) with
    | None, _ -> Error (key ^ ": no trace to certify")
    | Some cert, _ when not (Certifier.ok cert) ->
      Error (key ^ ": " ^ Certifier.to_summary cert)
    | _, None -> Error (key ^ ": no reference cycle count")
    | _, Some want when want <> got ->
      Error (Printf.sprintf "%s: %d cycles, reference %d" key got want)
    | _ -> Ok got)
