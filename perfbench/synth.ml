(* The synthesis workload: the paper's ES partitioning flow
   ([Pipeline.run_result Evolution]) on the C7552 stand-in, a fixed
   number of generations with the stall stop off and offspring costs
   on a fixed 2 domains.  Set-up parses the circuit's .bench text; the
   run seed is the ES seed, and every job of a run repeats it. *)

module Pipeline = Iddq.Pipeline
module Rng = Iddq_util.Rng
module Charac = Iddq_analysis.Charac
module Partition = Iddq_core.Partition
module Cost = Iddq_core.Cost
module Cost_eval = Iddq_core.Cost_eval
module Es = Iddq_evolution.Es
module Seeds = Iddq_evolution.Seeds
module Part_iddq = Iddq_evolution.Part_iddq
module Bench_io = Iddq_netlist.Bench_io

let bench_text = lazy (Bench_io.to_string (Iddq_netlist.Iscas.c7552_like ()))

let parse () =
  match Bench_io.parse_string ~name:"c7552" (Lazy.force bench_text) with
  | Ok c -> c
  | Error e -> Common.fail "C7552 does not parse: %s" (Iddq_util.Io_error.to_string e)

(* Parses per timed set-up sample. *)
let setup_reps = 4
let setups_per_job = 8
let generations = 8

(* Two domains whatever the machine: two barely beat one on this flow,
   so a move to a shared domain pool can show. *)
let es_params =
  {
    Es.default_params with
    max_generations = generations;
    stall_generations = generations + 1;
    domains = 2;
  }

type result = { best_cost : float; sensor_area : float }

let same ~reference r =
  Checks.require
    (Checks.same_float ~what:"best cost" ~reference:reference.best_cost r.best_cost);
  Checks.require
    (Checks.same_float ~what:"sensor area" ~reference:reference.sensor_area
       r.sensor_area)

let untraced_job ~seed circuit =
  let config = Pipeline.config ~seed ~es_params () in
  match Pipeline.run_result ~config Pipeline.Evolution circuit with
  | Error e -> Common.fail "synthesis failed: %s" (Pipeline.error_to_string e)
  | Ok r ->
    if r.Pipeline.generations <> generations then
      Common.fail "ES ran %d generations, expected %d" r.Pipeline.generations
        generations;
    ( r,
      {
        best_cost = r.Pipeline.breakdown.Cost.penalized;
        sensor_area = r.Pipeline.breakdown.Cost.sensor_area;
      } )

(* The independent check of a job: the partition is consistent and a
   fresh full evaluation gives the reported cost. *)
let check (r : Pipeline.t) =
  Checks.require
    (Checks.partition ~reported_cost:r.Pipeline.breakdown.Cost.penalized
       r.Pipeline.partition)

type spans = {
  charac : Span.t;
  seeds : Span.t;
  create : Span.t;
  eval_create : Span.t;
  es : Span.t;
  copy : Span.t;
  mutate : Span.t;
  monte_carlo : Span.t;
  cost : Span.t;
  cost_wall : Span.wall;
  evaluate : Span.t;
  sizing : Span.t;
  mutable generations : int;
  mutable improving : int;
}

let spans () =
  {
    charac = Span.create ();
    seeds = Span.create ();
    create = Span.create ();
    eval_create = Span.create ();
    es = Span.create ();
    copy = Span.create ();
    mutate = Span.create ();
    monte_carlo = Span.create ();
    cost = Span.create ();
    cost_wall = Span.wall ();
    evaluate = Span.create ();
    sizing = Span.create ();
    generations = 0;
    improving = 0;
  }

(* The ES problem of [Part_iddq] with every closure inside a span.  The
   first [mu] cost calls are the start individuals', made in order on
   the calling domain; their minimum is the best cost before
   generation 1.  A copy, mutation or Monte-Carlo call closes the
   running cost phase, whose wall time is the union of its spans over
   both domains. *)
let traced_problem sp ~mu start_best =
  let base = Part_iddq.problem () in
  let cost_index = Atomic.make 0 in
  {
    Es.copy =
      (fun e ->
        Span.flush sp.cost_wall;
        Span.time sp.copy (fun () -> base.Es.copy e));
    cost =
      (fun e ->
        let c = Span.time_in_phase sp.cost sp.cost_wall (fun () -> base.Es.cost e) in
        if Atomic.fetch_and_add cost_index 1 < mu then
          start_best := Float.min !start_best c;
        c);
    mutate =
      (fun rng ~step e ->
        Span.flush sp.cost_wall;
        Span.time sp.mutate (fun () -> base.Es.mutate rng ~step e));
    monte_carlo =
      (fun rng e ->
        Span.flush sp.cost_wall;
        Span.time sp.monte_carlo (fun () -> base.Es.monte_carlo rng e));
  }

(* The same job as [untraced_job], re-driven from the public calls
   [Pipeline] makes, each inside a span.  [Seeds.population] builds its
   partitions with [Partition.create] internally; the traced job
   rebuilds each start from its assignment with that public call and
   evolves the rebuilt ones, so [core.partition_create_s] times the
   same work inside the job (its double is part of the overhead). *)
let traced_job ~seed circuit =
  let sp = spans () in
  let ch =
    Span.time sp.charac (fun () ->
        Charac.make ~library:Iddq_celllib.Library.default circuit)
  in
  let rng = Rng.create seed in
  let seeded =
    Span.time sp.seeds (fun () -> Seeds.population ~rng ~count:es_params.Es.mu ch)
  in
  let starts =
    List.map
      (fun p ->
        let assignment = Partition.assignment p in
        Span.time sp.create (fun () -> Partition.create ch ~assignment))
      seeded
  in
  let evals =
    Span.time sp.eval_create (fun () ->
        List.map (fun p -> Cost_eval.create (Partition.copy p)) starts)
  in
  let start_best = ref infinity in
  let last_best = ref infinity in
  let on_generation (g : Es.generation_report) =
    if !last_best = infinity then last_best := !start_best;
    sp.generations <- sp.generations + 1;
    if g.Es.best_cost < !last_best then sp.improving <- sp.improving + 1;
    last_best := g.Es.best_cost
  in
  let problem = traced_problem sp ~mu:es_params.Es.mu start_best in
  let best, _ =
    Span.time sp.es (fun () -> Es.run ~on_generation es_params rng problem evals)
  in
  let partition = Cost_eval.partition best.Es.solution in
  let breakdown = Span.time sp.evaluate (fun () -> Cost.evaluate partition) in
  ignore (Span.time sp.sizing (fun () -> Partition.sensors partition));
  if sp.generations <> generations then
    Common.fail "traced ES ran %d generations, expected %d" sp.generations generations;
  ( { best_cost = breakdown.Cost.penalized; sensor_area = breakdown.Cost.sensor_area },
    sp )

let layers sp =
  let seconds = Span.seconds and calls t = float_of_int (Span.calls t) in
  let es_s = seconds sp.es in
  let cost_wall_s = Span.covered_seconds sp.cost_wall in
  let children =
    seconds sp.copy +. seconds sp.mutate +. seconds sp.monte_carlo +. cost_wall_s
  in
  [
    ("analysis.charac_s", seconds sp.charac);
    ("evolution.seeds_s", seconds sp.seeds);
    ("core.partition_create_s", seconds sp.create);
    ("core.partition_create_calls", calls sp.create);
    ("core.cost_eval_create_s", seconds sp.eval_create);
    ("evolution.es_s", es_s);
    ("evolution.generations", float_of_int sp.generations);
    ("evolution.copy_s", seconds sp.copy);
    ("evolution.copy_calls", calls sp.copy);
    ("evolution.mutate_s", seconds sp.mutate);
    ("evolution.mutate_calls", calls sp.mutate);
    ("evolution.monte_carlo_s", seconds sp.monte_carlo);
    ("evolution.monte_carlo_calls", calls sp.monte_carlo);
    ("evolution.cost_busy_s", seconds sp.cost);
    ("evolution.cost_calls", calls sp.cost);
    ("evolution.cost_wall_s", cost_wall_s);
    ("evolution.self_s", es_s -. children);
    ( "evolution.improving_ratio",
      float_of_int sp.improving /. float_of_int (max 1 sp.generations) );
    ("core.evaluate_s", seconds sp.evaluate);
    ("bic.sizing_s", seconds sp.sizing);
  ]

let report r = [ ("best_cost", r.best_cost, "cost"); ("sensor_area", r.sensor_area, "area") ]

let run (o : Common.opts) =
  let seed = o.Common.seed in
  if not o.Common.trace then begin
    let jobs =
      Common.run_jobs ~seconds:o.Common.seconds ~min_jobs:3
        ~setup:(setup_reps, parse) ~setups_per_job
        ~same:(fun ~reference r -> same ~reference:(snd reference) (snd r))
        (untraced_job ~seed)
    in
    (* The warm-up job is checked in full; every later job equals it
       bit for bit. *)
    let r, res = jobs.Common.first in
    check r;
    Common.plain_outcome jobs ~report:(report res)
  end
  else begin
    let parse_ms = Common.setup_ms ~reps:setup_reps parse in
    let c = parse () in
    let t =
      Common.run_traced ~seconds:o.Common.seconds ~same
        ~untraced:(fun () -> snd (untraced_job ~seed c))
        ~traced:(fun () -> traced_job ~seed c)
    in
    let layers = layers t.Common.layers in
    Common.traced_outcome t
      ~layers:(("netlist.parse_ms", parse_ms) :: layers)
      ~report:
        [
          Common.spans_share t layers
            [
              "analysis.charac_s"; "evolution.seeds_s"; "core.partition_create_s";
              "core.cost_eval_create_s"; "evolution.es_s"; "core.evaluate_s";
              "bic.sizing_s";
            ];
        ]
  end
