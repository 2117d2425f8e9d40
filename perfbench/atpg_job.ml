(* The ATPG workload: [Atpg.run_result] on the C432 stand-in — 1024
   random vectors graded by stuck-at simulation, a PODEM top-up with
   fault dropping at 16 backtracks, the full detection matrix, then
   minimization.  Set-up parses the circuit's .bench text and builds
   its collapsed fault list; the run seed is the ATPG seed, and every
   job of a run repeats it. *)

module Atpg = Iddq_atpg.Atpg
module Testset = Iddq_atpg.Testset
module Podem = Iddq_atpg.Podem
module Stuck_at = Iddq_defects.Stuck_at
module Coverage = Iddq_defects.Coverage
module Circuit = Iddq_netlist.Circuit
module Bench_io = Iddq_netlist.Bench_io
module Rng = Iddq_util.Rng

(* A job takes about half a second: stuck-at simulation about half of
   it, PODEM most of the rest.  C880 jobs took 4-5 s and left a run too
   few samples for a steady median. *)
let random_vectors = 1024
let max_backtracks = 16

(* Parse-and-collapse steps per timed set-up sample, and samples per
   job. *)
let setup_reps = 20
let setups_per_job = 4

let config ~seed = Atpg.config ~seed ~random_vectors ~max_backtracks ()

let bench_text = lazy (Bench_io.to_string (Iddq_netlist.Iscas.c432_like ()))

let setup () =
  match Bench_io.parse_string ~name:"c432" (Lazy.force bench_text) with
  | Ok c -> (c, Stuck_at.collapsed_fault_list c)
  | Error e -> Common.fail "C432 does not parse: %s" (Iddq_util.Io_error.to_string e)

type result = { selected : int array; coverage : float }

let same ~reference r =
  if reference.selected <> r.selected then
    Common.fail "the selected test set differs between jobs on one input";
  Checks.require
    (Checks.same_float ~what:"fault coverage" ~reference:reference.coverage
       r.coverage)

let untraced_job ~seed c =
  match Atpg.run_result ~config:(config ~seed) c with
  | Error e -> Common.fail "ATPG failed: %s" (Atpg.error_to_string e)
  | Ok r -> (r, { selected = r.Atpg.selected; coverage = r.Atpg.coverage })

(* The independent check of a job, by the scalar simulator. *)
let check c ~faults (r : Atpg.set_result) =
  Checks.require
    (Checks.coverage c ~faults ~vectors:r.Atpg.vectors
       ~all_vectors:r.Atpg.all_vectors ~reported:r.Atpg.coverage)

type spans = {
  fault_list : Span.t;
  random : Span.t;
  grade : Span.t;
  podem : Span.t;
  redetect : Span.t;
  matrix : Span.t;
  minimize : Span.t;
  mutable defects_words : float;
  mutable atpg_words : float;
}

let spans () =
  {
    fault_list = Span.create ();
    random = Span.create ();
    grade = Span.create ();
    podem = Span.create ();
    redetect = Span.create ();
    matrix = Span.create ();
    minimize = Span.create ();
    defects_words = 0.0;
    atpg_words = 0.0;
  }

(* A span that also counts the words the call allocates on this
   domain (every call here runs on one domain). *)
let counted span words f =
  let w0 = Common.allocated_words () in
  let r = Span.time span f in
  words (Common.allocated_words () -. w0);
  r

(* The same job as [untraced_job], re-driven from the public calls
   [Atpg.run_result] and [Testset.generate] make, each inside a span:
   the collapsed fault list, the random vectors, their grading, PODEM
   and concretization per target, the re-detection sweep of each new
   vector over the live faults, the full detection matrix and the
   minimization.  What the spans leave out is list bookkeeping. *)
let traced_job ~seed c =
  let sp = spans () in
  let defects f = counted f (fun w -> sp.defects_words <- sp.defects_words +. w) in
  let atpg f = counted f (fun w -> sp.atpg_words <- sp.atpg_words +. w) in
  let faults = defects sp.fault_list (fun () -> Stuck_at.collapsed_fault_list c) in
  let rng = Rng.create seed in
  let initial =
    Span.time sp.random (fun () ->
        Iddq_patterns.Pattern_gen.random ~rng c ~count:random_vectors)
  in
  let live = defects sp.grade (fun () -> Stuck_at.undetected c ~vectors:initial ~faults) in
  let generated = ref [] and n_generated = ref 0 in
  let untestable = ref 0 and aborted = ref 0 and targeted = ref 0 in
  let rec work = function
    | [] -> ()
    | fault :: rest -> (
      incr targeted;
      match atpg sp.podem (fun () -> Podem.generate ~max_backtracks c fault) with
      | Podem.Untestable ->
        incr untestable;
        work rest
      | Podem.Aborted ->
        incr aborted;
        work rest
      | Podem.Test cube ->
        let vector = atpg sp.podem (fun () -> Podem.concretize ~rng cube) in
        incr n_generated;
        generated := vector :: !generated;
        work
          (defects sp.redetect (fun () ->
               List.filter (fun f -> not (Stuck_at.detects c f vector)) rest)))
  in
  work live;
  let vectors = Array.append initial (Array.of_list (List.rev !generated)) in
  let matrix =
    defects sp.matrix (fun () -> Stuck_at.detection_matrix c ~vectors ~faults)
  in
  let selected = atpg sp.minimize (fun () -> Testset.minimize Testset.Refined matrix) in
  let coverage =
    float_of_int (Coverage.num_detectable matrix) /. float_of_int (List.length faults)
  in
  let stats =
    {
      Testset.random = random_vectors;
      generated = !n_generated;
      untestable = !untestable;
      aborted = !aborted;
      targeted = !targeted;
    }
  in
  ( { selected; coverage },
    (sp, stats, List.length faults, Circuit.num_gates c, Array.length vectors) )

let layers (sp, (st : Testset.stats), faults, gates, vectors_before) ~vectors_after =
  let seconds = Span.seconds and count n = float_of_int n in
  let matrix_s = seconds sp.matrix in
  [
    ("defects.faults", count faults);
    ("defects.fault_list_s", seconds sp.fault_list);
    ("patterns.random_s", seconds sp.random);
    ("defects.grade_random_s", seconds sp.grade);
    ("atpg.podem_s", seconds sp.podem);
    ("atpg.redetect_s", seconds sp.redetect);
    ("defects.matrix_s", matrix_s);
    ( "defects.matrix_gate_vectors_per_s",
      count gates *. count vectors_before /. matrix_s );
    ("defects.alloc_mw", sp.defects_words /. 1e6);
    ("atpg.minimize_s", seconds sp.minimize);
    ("atpg.targeted", count st.Testset.targeted);
    ("atpg.generated", count st.Testset.generated);
    ("atpg.aborted", count st.Testset.aborted);
    ("atpg.untestable", count st.Testset.untestable);
    ( "atpg.useful_ratio",
      count st.Testset.generated /. count (max 1 st.Testset.targeted) );
    ("atpg.vectors_before", count vectors_before);
    ("atpg.vectors_after", count vectors_after);
    ("atpg.alloc_mw", sp.atpg_words /. 1e6);
  ]

let report r =
  [
    ("test_vectors", float_of_int (Array.length r.selected), "count");
    ("fault_coverage", r.coverage, "fraction");
  ]

let run (o : Common.opts) =
  let seed = o.Common.seed in
  if not o.Common.trace then begin
    let jobs =
      Common.run_jobs ~rotate_cpus:true ~seconds:o.Common.seconds ~min_jobs:3
        ~setup:(setup_reps, setup) ~setups_per_job
        ~same:(fun ~reference r -> same ~reference:(snd reference) (snd r))
        (fun (c, _) -> untraced_job ~seed c)
    in
    let c, faults = setup () in
    let r, res = jobs.Common.first in
    check c ~faults r;
    Common.plain_outcome jobs ~report:(report res)
  end
  else begin
    let parse_ms =
      Common.setup_ms ~reps:setup_reps (fun () ->
          Bench_io.parse_string (Lazy.force bench_text))
    in
    let c, faults = setup () in
    let t =
      Common.run_traced ~seconds:o.Common.seconds ~same
        ~untraced:(fun () -> snd (untraced_job ~seed c))
        ~traced:(fun () -> traced_job ~seed c)
    in
    let r, res = untraced_job ~seed c in
    check c ~faults r;
    let layers = layers t.Common.layers ~vectors_after:(Array.length res.selected) in
    Common.traced_outcome t
      ~layers:(("netlist.parse_ms", parse_ms) :: layers)
      ~report:
        (Common.spans_share t layers
           [
             "defects.fault_list_s"; "patterns.random_s"; "defects.grade_random_s";
             "atpg.podem_s"; "atpg.redetect_s"; "defects.matrix_s"; "atpg.minimize_s";
           ]
        :: report res)
  end
