module Charac = Iddq_analysis.Charac
module Partition = Iddq_core.Partition
module Constraints = Iddq_core.Constraints
module Cost = Iddq_core.Cost
module Cost_eval = Iddq_core.Cost_eval
module Metrics = Iddq_util.Metrics
module Iscas = Iddq_netlist.Iscas
module Generator = Iddq_netlist.Generator
module Library = Iddq_celllib.Library
module Technology = Iddq_celllib.Technology
module Gate = Iddq_netlist.Gate
module Rng = Iddq_util.Rng

let make circuit = Charac.make ~library:Library.default circuit

let library_with_threshold th =
  match
    Library.make ~name:"custom"
      ~technology:{ Technology.default with Technology.iddq_threshold = th }
      ~cells:(List.map (fun k -> (k, Library.cell Library.default k)) Gate.all_kinds)
      ()
  with
  | Ok l -> l
  | Error e -> failwith e

let test_constraints_feasible_default () =
  let ch = make (Iscas.c17 ()) in
  let p = Partition.create ch ~assignment:[| 0; 1; 0; 1; 0; 1 |] in
  Alcotest.(check bool) "tiny modules trivially feasible" true
    (Constraints.satisfied p);
  Alcotest.(check (float 0.0)) "deficit 0" 0.0 (Constraints.deficit p)

let test_constraints_infeasible () =
  (* a threshold so low that even one NAND gate violates d >= 10 *)
  let ch = Charac.make ~library:(library_with_threshold 1e-12) (Iscas.c17 ()) in
  let p = Partition.create ch ~assignment:[| 0; 1; 0; 1; 0; 1 |] in
  Alcotest.(check bool) "violated" false (Constraints.satisfied p);
  let violations = Constraints.check p in
  Alcotest.(check int) "both modules listed" 2 (List.length violations);
  List.iter
    (fun v ->
      Alcotest.(check bool) "got < required" true
        (v.Constraints.got < v.Constraints.required))
    violations;
  Alcotest.(check bool) "deficit positive" true (Constraints.deficit p > 0.0)

let test_penalty_applied () =
  let ch = Charac.make ~library:(library_with_threshold 1e-12) (Iscas.c17 ()) in
  let p = Partition.create ch ~assignment:[| 0; 1; 0; 1; 0; 1 |] in
  let b = Cost.evaluate p in
  Alcotest.(check bool) "penalized > total" true (b.Cost.penalized > b.Cost.total);
  Alcotest.(check bool) "flagged infeasible" false b.Cost.feasible

let test_feasible_no_penalty () =
  let ch = make (Iscas.c17 ()) in
  let p = Partition.create ch ~assignment:[| 0; 1; 0; 1; 0; 1 |] in
  let b = Cost.evaluate p in
  Alcotest.(check (float 1e-12)) "penalized = total" b.Cost.total b.Cost.penalized;
  Alcotest.(check bool) "feasible" true b.Cost.feasible

let test_breakdown_sanity () =
  let ch = make (Iscas.c17 ()) in
  let p = Partition.create ch ~assignment:[| 0; 1; 0; 1; 0; 1 |] in
  let b = Cost.evaluate p in
  Alcotest.(check (float 1e-9)) "c1 = log area" (log b.Cost.sensor_area)
    b.Cost.c1_area;
  Alcotest.(check (float 1e-9)) "c5 = module count" 2.0 b.Cost.c5_module_count;
  Alcotest.(check bool) "bic delay >= nominal" true
    (b.Cost.bic_delay >= b.Cost.nominal_delay);
  Alcotest.(check (float 1e-9)) "c2 consistent"
    ((b.Cost.bic_delay -. b.Cost.nominal_delay) /. b.Cost.nominal_delay)
    b.Cost.c2_delay;
  Alcotest.(check bool) "test time per vector > bic delay" true
    (b.Cost.test_time_per_vector > b.Cost.bic_delay)

let test_weights_respected () =
  let ch = make (Iscas.c17 ()) in
  let p = Partition.create ch ~assignment:[| 0; 1; 0; 1; 0; 1 |] in
  let b = Cost.evaluate ~weights:Cost.equal_weights p in
  let expected =
    b.Cost.c1_area +. b.Cost.c2_delay +. b.Cost.c3_separation
    +. b.Cost.c4_test_time +. b.Cost.c5_module_count
  in
  Alcotest.(check (float 1e-9)) "equal weights sum" expected b.Cost.total

let test_paper_weights_values () =
  let w = Cost.paper_weights in
  Alcotest.(check (float 0.0)) "area 9" 9.0 w.Cost.w_area;
  Alcotest.(check (float 0.0)) "delay 1e5" 1.0e5 w.Cost.w_delay;
  Alcotest.(check (float 0.0)) "separation 1" 1.0 w.Cost.w_separation;
  Alcotest.(check (float 0.0)) "test 1" 1.0 w.Cost.w_test_time;
  Alcotest.(check (float 0.0)) "count 10" 10.0 w.Cost.w_module_count

let test_merge_lowers_module_count_cost () =
  let ch = make (Iscas.c17 ()) in
  let two = Partition.create ch ~assignment:[| 0; 1; 0; 1; 0; 1 |] in
  let one = Partition.create ch ~assignment:[| 0; 0; 0; 0; 0; 0 |] in
  let b2 = Cost.evaluate two and b1 = Cost.evaluate one in
  Alcotest.(check bool) "c5 smaller" true
    (b1.Cost.c5_module_count < b2.Cost.c5_module_count)

let qcheck_cost_invariant_under_move_roundtrip =
  QCheck.Test.make
    ~name:"cost identical after a move and its inverse" ~count:25
    QCheck.(pair (int_range 20 60) (int_range 1 100000))
    (fun (gates, seed) ->
      let rng = Rng.create seed in
      let circuit =
        Generator.layered_dag ~rng ~name:"q" ~num_inputs:6 ~num_outputs:3
          ~num_gates:gates ~depth:(1 + (gates / 8)) ()
      in
      let ch = make circuit in
      let p = Partition.create ch ~assignment:(Array.init gates (fun g -> g mod 3)) in
      let before = (Cost.evaluate p).Cost.penalized in
      let g = Rng.int rng gates in
      let src = Partition.module_of_gate p g in
      let target = (src + 1) mod 3 in
      if Partition.size p src > 1 then begin
        Partition.move_gate p g target;
        Partition.move_gate p g src
      end;
      let after = (Cost.evaluate p).Cost.penalized in
      Float.abs (before -. after) < 1e-9 *. Stdlib.max 1.0 (Float.abs before))

let qcheck_incremental_cost_equals_fresh =
  QCheck.Test.make
    ~name:"cost from incremental aggregates = cost from a fresh partition"
    ~count:20
    QCheck.(triple (int_range 20 60) (int_range 2 5) (int_range 1 100000))
    (fun (gates, k, seed) ->
      let rng = Rng.create seed in
      let circuit =
        Generator.layered_dag ~rng ~name:"q" ~num_inputs:6 ~num_outputs:3
          ~num_gates:gates ~depth:(1 + (gates / 8)) ()
      in
      let ch = make circuit in
      let p = Partition.create ch ~assignment:(Array.init gates (fun g -> g mod k)) in
      (* random walk *)
      for _ = 1 to 40 do
        if Partition.num_modules p >= 2 then begin
          let g = Rng.int rng gates in
          let target = Rng.choose_list rng (Partition.module_ids p) in
          if target <> Partition.module_of_gate p g then
            Partition.move_gate p g target
        end
      done;
      (* rebuild from the final assignment with dense ids *)
      let assignment = Partition.assignment p in
      let live = Partition.module_ids p in
      let remap = Hashtbl.create 8 in
      List.iteri (fun i m -> Hashtbl.replace remap m i) live;
      let dense = Array.map (Hashtbl.find remap) assignment in
      let fresh = Partition.create ch ~assignment:dense in
      let a = (Cost.evaluate p).Cost.penalized in
      let b = (Cost.evaluate fresh).Cost.penalized in
      Float.abs (a -. b) < 1e-9 *. Stdlib.max 1.0 (Float.abs a))

let test_cost_eval_matches_evaluate () =
  let ch = make (Iscas.c17 ()) in
  let p = Partition.create ch ~assignment:[| 0; 1; 0; 1; 0; 1 |] in
  let eval = Cost_eval.create p in
  let d = Cost_eval.breakdown eval in
  let f = Cost.evaluate p in
  Alcotest.(check (float 0.0)) "penalized exact" f.Cost.penalized d.Cost.penalized;
  Alcotest.(check (float 0.0)) "bic exact" f.Cost.bic_delay d.Cost.bic_delay;
  Alcotest.(check (float 0.0)) "area exact" f.Cost.sensor_area d.Cost.sensor_area

let test_cost_eval_counters () =
  let ch = make (Iscas.c17 ()) in
  let p = Partition.create ch ~assignment:[| 0; 1; 0; 1; 0; 1 |] in
  let metrics = Metrics.create () in
  let eval = Cost_eval.create ~metrics p in
  let b1 = Cost_eval.breakdown eval in
  let b2 = Cost_eval.breakdown eval in
  Alcotest.(check (float 0.0)) "cache returns same value" b1.Cost.penalized
    b2.Cost.penalized;
  let s = Metrics.snapshot metrics in
  Alcotest.(check int) "one full eval" 1 (Metrics.get s Metrics.full_evals);
  Alcotest.(check int) "one cache hit" 1 (Metrics.get s Metrics.eval_cache_hits);
  Alcotest.(check int) "full eval visited every gate" 6 (Metrics.get s Metrics.gates_full);
  Cost_eval.move eval ~gate:0 ~target:1;
  ignore (Cost_eval.penalized eval);
  let s = Metrics.snapshot metrics in
  Alcotest.(check int) "one move" 1 (Metrics.get s Metrics.moves);
  Alcotest.(check int) "one delta eval" 1 (Metrics.get s Metrics.delta_evals);
  Alcotest.(check (result unit string)) "delta matches full" (Ok ())
    (Cost_eval.self_check eval);
  (* moving a gate to its own module is a no-op: nothing recorded *)
  Cost_eval.move eval ~gate:0 ~target:(Partition.module_of_gate p 0);
  ignore (Cost_eval.breakdown eval);
  let s' = Metrics.snapshot metrics in
  Alcotest.(check int) "no-op move not counted" (Metrics.get s Metrics.moves) (Metrics.get s' Metrics.moves);
  Cost_eval.invalidate eval;
  ignore (Cost_eval.breakdown eval);
  let s'' = Metrics.snapshot metrics in
  Alcotest.(check int) "invalidate forces a full recompute" 2
    (Metrics.get s'' Metrics.full_evals)

let test_cost_eval_copy_independent () =
  let ch = make (Iscas.c17 ()) in
  let p = Partition.create ch ~assignment:[| 0; 1; 0; 1; 0; 1 |] in
  let eval = Cost_eval.create ~metrics:(Metrics.create ()) p in
  let before = Cost_eval.penalized eval in
  let dup = Cost_eval.copy eval in
  Cost_eval.move dup ~gate:0 ~target:1;
  Alcotest.(check (float 0.0)) "original untouched by copy's moves" before
    (Cost_eval.penalized eval);
  Alcotest.(check (result unit string)) "copy coherent" (Ok ())
    (Cost_eval.self_check dup);
  Alcotest.(check (result unit string)) "original coherent" (Ok ())
    (Cost_eval.self_check eval)

let test_cost_eval_module_death () =
  let ch = make (Iscas.c17 ()) in
  let p = Partition.create ch ~assignment:[| 0; 1; 0; 1; 0; 1 |] in
  let eval = Cost_eval.create ~metrics:(Metrics.create ()) p in
  ignore (Cost_eval.breakdown eval);
  (* empty module 1 one gate at a time, evaluating between moves *)
  List.iter
    (fun g ->
      Cost_eval.move eval ~gate:g ~target:0;
      Alcotest.(check (result unit string)) "coherent during death" (Ok ())
        (Cost_eval.self_check eval))
    [ 1; 3; 5 ];
  Alcotest.(check int) "module 1 died" 1 (Partition.num_modules p)

let qcheck_delta_equals_full =
  QCheck.Test.make
    ~name:"delta evaluation = full Cost.evaluate over random move sequences"
    ~count:20
    QCheck.(triple (int_range 20 60) (int_range 2 6) (int_range 1 100000))
    (fun (gates, k, seed) ->
      let rng = Rng.create seed in
      let circuit =
        Generator.layered_dag ~rng ~name:"q" ~num_inputs:6 ~num_outputs:3
          ~num_gates:gates ~depth:(1 + (gates / 8)) ()
      in
      let ch = make circuit in
      let p =
        Partition.create ch ~assignment:(Array.init gates (fun g -> g mod k))
      in
      let eval = Cost_eval.create ~metrics:(Metrics.create ()) p in
      let ok = ref true in
      (* random walk with bursts of moves between evaluations; sources
         empty out along the way, covering module death *)
      for step = 1 to 60 do
        if Partition.num_modules p >= 2 then begin
          let g = Rng.int rng gates in
          let target = Rng.choose_list rng (Partition.module_ids p) in
          Cost_eval.move eval ~gate:g ~target;
          if step mod 3 = 0 then begin
            let d = (Cost_eval.breakdown eval).Cost.penalized in
            let f = (Cost.evaluate p).Cost.penalized in
            if Float.abs (d -. f) > 1e-9 *. Stdlib.max 1.0 (Float.abs f) then
              ok := false
          end
        end
      done;
      !ok && Cost_eval.self_check eval = Ok ())

let tests =
  [
    Alcotest.test_case "constraints feasible" `Quick test_constraints_feasible_default;
    Alcotest.test_case "constraints infeasible" `Quick test_constraints_infeasible;
    Alcotest.test_case "penalty applied" `Quick test_penalty_applied;
    Alcotest.test_case "feasible no penalty" `Quick test_feasible_no_penalty;
    Alcotest.test_case "breakdown sanity" `Quick test_breakdown_sanity;
    Alcotest.test_case "weights respected" `Quick test_weights_respected;
    Alcotest.test_case "paper weights" `Quick test_paper_weights_values;
    Alcotest.test_case "merge lowers c5" `Quick test_merge_lowers_module_count_cost;
    QCheck_alcotest.to_alcotest qcheck_cost_invariant_under_move_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_incremental_cost_equals_fresh;
    Alcotest.test_case "cost_eval matches evaluate" `Quick
      test_cost_eval_matches_evaluate;
    Alcotest.test_case "cost_eval counters" `Quick test_cost_eval_counters;
    Alcotest.test_case "cost_eval copy independent" `Quick
      test_cost_eval_copy_independent;
    Alcotest.test_case "cost_eval module death" `Quick
      test_cost_eval_module_death;
    QCheck_alcotest.to_alcotest qcheck_delta_equals_full;
  ]
