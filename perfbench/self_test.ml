(* The benchmark's own tests: each output check must reject a
   deliberately wrong answer, and a short run of every workload, plain
   and traced, must pass its checks and print every metric with its
   unit. *)

module Pipeline = Iddq.Pipeline
module Atpg = Iddq_atpg.Atpg
module Stuck_at = Iddq_defects.Stuck_at

let expect_rejected what = function
  | Ok () -> Common.fail "the %s check accepted a wrong answer" what
  | Error msg -> Printf.printf "self-test: %s check rejects: %s\n%!" what msg

let expect_accepted what = function
  | Ok () -> ()
  | Error msg -> Common.fail "the %s check rejected a right answer: %s" what msg

let partition_check () =
  let c = Iddq_netlist.Iscas.c432_like () in
  match Pipeline.run_result Pipeline.Standard c with
  | Error e -> Common.fail "%s" (Pipeline.error_to_string e)
  | Ok r ->
    let cost = r.Pipeline.breakdown.Iddq_core.Cost.penalized in
    expect_accepted "partition cost"
      (Checks.partition ~reported_cost:cost r.Pipeline.partition);
    expect_rejected "partition cost"
      (Checks.partition ~reported_cost:(Float.succ cost) r.Pipeline.partition)

let coverage_check () =
  let c = Iddq_netlist.Iscas.c432_like () in
  let faults = Stuck_at.collapsed_fault_list c in
  let config = Atpg.config ~seed:7 ~random_vectors:64 ~max_backtracks:64 () in
  match Atpg.run_result ~config c with
  | Error e -> Common.fail "%s" (Atpg.error_to_string e)
  | Ok r ->
    let check vectors =
      Checks.coverage c ~faults ~vectors ~all_vectors:r.Atpg.all_vectors
        ~reported:r.Atpg.coverage
    in
    expect_accepted "test-set coverage" (check r.Atpg.vectors);
    let n = Array.length r.Atpg.vectors in
    expect_rejected "test-set coverage" (check (Array.sub r.Atpg.vectors 0 (n - 1)));
    expect_rejected "test-set coverage"
      (Checks.coverage c ~faults ~vectors:r.Atpg.vectors ~all_vectors:r.Atpg.all_vectors
         ~reported:(Float.pred r.Atpg.coverage))

(* Jobs on one input must agree bit for bit, and a server reply must
   equal the in-process one. *)
let determinism_checks () =
  expect_accepted "same-output" (Checks.same_float ~what:"cost" ~reference:1.5 1.5);
  expect_rejected "same-output"
    (Checks.same_float ~what:"cost" ~reference:1.5 (Float.succ 1.5));
  expect_accepted "server reply" (Checks.same_reply ~id:1 ~server:"{}" ~in_process:"{}");
  expect_rejected "server reply"
    (Checks.same_reply ~id:1 ~server:"{\"x\":1}" ~in_process:"{\"x\":2}");
  let wrong_selection () =
    Atpg_job.same
      ~reference:{ Atpg_job.selected = [| 0; 2 |]; coverage = 0.5 }
      { Atpg_job.selected = [| 0; 1 |]; coverage = 0.5 }
  in
  match wrong_selection () with
  | () -> Common.fail "the selected-test-set check accepted a wrong answer"
  | exception Common.Check_failed msg ->
    Printf.printf "self-test: selected-test-set check rejects: %s\n%!" msg

let responses_check () =
  let check answered_ids codes =
    Checks.responses ~sent:4 ~answered_ids ~codes ~allowed:[ "overloaded" ]
  in
  expect_accepted "response ids" (check [ 0; 1; 2; 3 ] [ "overloaded" ]);
  expect_rejected "response ids" (check [ 0; 1; 3 ] []);
  expect_rejected "response ids" (check [ 0; 1; 2; 3; 2 ] []);
  expect_rejected "response ids" (check [ 0; 1; 2; 3 ] [ "internal" ])

let run ~workloads ~run_workload =
  partition_check ();
  coverage_check ();
  determinism_checks ();
  responses_check ();
  List.iter
    (fun name ->
      List.iter
        (fun trace ->
          Printf.printf "self-test: %s, trace %b\n%!" name trace;
          run_workload name { Common.seed = 1; seconds = 2.0; trace })
        [ false; true ])
    workloads;
  print_endline "self-test: PASS"
