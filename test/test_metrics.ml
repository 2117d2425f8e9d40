module Metrics = Iddq_util.Metrics

let test_record_and_snapshot () =
  let m = Metrics.create () in
  Metrics.record_full m ~gates:100 ~seconds:0.5;
  Metrics.record_full m ~gates:100 ~seconds:0.25;
  Metrics.record_delta m ~gates:10 ~seconds:0.01;
  Metrics.incr m Metrics.eval_cache_hits;
  Metrics.incr m Metrics.moves;
  Metrics.incr m Metrics.moves;
  let s = Metrics.snapshot m in
  Alcotest.(check int) "full" 2 (Metrics.get s Metrics.full_evals);
  Alcotest.(check int) "delta" 1 (Metrics.get s Metrics.delta_evals);
  Alcotest.(check int) "hits" 1 (Metrics.get s Metrics.eval_cache_hits);
  Alcotest.(check int) "moves" 2 (Metrics.get s Metrics.moves);
  Alcotest.(check int) "gates full" 200 (Metrics.get s Metrics.gates_full);
  Alcotest.(check int) "gates delta" 10 (Metrics.get s Metrics.gates_delta);
  Alcotest.(check (float 1e-12)) "seconds full" 0.75 (Metrics.get s Metrics.seconds_full);
  Alcotest.(check int) "evaluations" 4 (Metrics.evaluations s)

let test_equivalent_evals () =
  let m = Metrics.create () in
  Metrics.record_full m ~gates:100 ~seconds:0.0;
  Metrics.record_delta m ~gates:10 ~seconds:0.0;
  Metrics.record_delta m ~gates:40 ~seconds:0.0;
  let s = Metrics.snapshot m in
  (* 1 full + 50 delta-gates at 100 gates per full = 1.5 *)
  Alcotest.(check (float 1e-12)) "normalized by mean full size" 1.5
    (Metrics.equivalent_evals s);
  Alcotest.(check (float 1e-12)) "speedup = evaluations / equivalents" 2.0
    (Metrics.speedup s)

let test_equivalent_evals_no_full () =
  (* with no full evaluation there is no normalizer: every delta
     counts as a full one (pessimistic) *)
  let m = Metrics.create () in
  Metrics.record_delta m ~gates:7 ~seconds:0.0;
  Metrics.record_delta m ~gates:3 ~seconds:0.0;
  let s = Metrics.snapshot m in
  Alcotest.(check (float 1e-12)) "pessimistic fallback" 2.0
    (Metrics.equivalent_evals s)

let test_diff_and_reset () =
  let m = Metrics.create () in
  Metrics.record_full m ~gates:5 ~seconds:0.0;
  let before = Metrics.snapshot m in
  Metrics.record_delta m ~gates:2 ~seconds:0.0;
  Metrics.incr m Metrics.eval_cache_hits;
  let d = Metrics.diff (Metrics.snapshot m) before in
  Alcotest.(check int) "full increment" 0 (Metrics.get d Metrics.full_evals);
  Alcotest.(check int) "delta increment" 1 (Metrics.get d Metrics.delta_evals);
  Alcotest.(check int) "hit increment" 1 (Metrics.get d Metrics.eval_cache_hits);
  Metrics.reset m;
  let z = Metrics.snapshot m in
  Alcotest.(check int) "reset evals" 0 (Metrics.evaluations z);
  Alcotest.(check int) "reset gates" 0 (Metrics.get z Metrics.gates_full)

let test_domain_safe_recording () =
  (* concurrent recording from several domains loses nothing *)
  let m = Metrics.create () in
  let per_domain = 10_000 in
  let worker () =
    for _ = 1 to per_domain do
      Metrics.record_delta m ~gates:3 ~seconds:1e-6;
      Metrics.incr m Metrics.moves
    done
  in
  let domains = Array.init 3 (fun _ -> Domain.spawn worker) in
  worker ();
  Array.iter Domain.join domains;
  let s = Metrics.snapshot m in
  Alcotest.(check int) "all deltas counted" (4 * per_domain)
    (Metrics.get s Metrics.delta_evals);
  Alcotest.(check int) "all moves counted" (4 * per_domain) (Metrics.get s Metrics.moves);
  Alcotest.(check int) "all gates counted" (12 * per_domain)
    (Metrics.get s Metrics.gates_delta);
  Alcotest.(check (float 1e-9)) "all seconds accumulated"
    (4.0e-6 *. float_of_int per_domain)
    (Metrics.get s Metrics.seconds_delta)

let test_kinds () =
  (* a peak keeps the maximum and survives a diff; seconds are the
     only timing fields *)
  let m = Metrics.create () in
  Metrics.record m Metrics.queue_peak 5;
  Metrics.record m Metrics.queue_peak 3;
  Metrics.record m Metrics.seconds_full 0.5;
  Metrics.record m Metrics.moves 2;
  let before = Metrics.snapshot m in
  Metrics.record m Metrics.queue_peak 4;
  Metrics.record m Metrics.moves 1;
  let after = Metrics.snapshot m in
  Alcotest.(check int) "peak is the max" 5 (Metrics.get after Metrics.queue_peak);
  let d = Metrics.diff after before in
  Alcotest.(check int) "diff keeps the later peak" 5 (Metrics.get d Metrics.queue_peak);
  Alcotest.(check int) "diff subtracts sums" 1 (Metrics.get d Metrics.moves);
  let st = Metrics.strip_timing after in
  Alcotest.(check (float 0.0)) "timing zeroed" 0.0 (Metrics.get st Metrics.seconds_full);
  Alcotest.(check int) "counts kept" 3 (Metrics.get st Metrics.moves)

let test_pp_smoke () =
  let m = Metrics.create () in
  Metrics.record_full m ~gates:10 ~seconds:0.1;
  let s = Metrics.snapshot m in
  let str = Format.asprintf "%a" Metrics.pp s in
  Alcotest.(check bool) "mentions evaluations" true
    (String.length str > 0 && String.index_opt str '=' <> None)

let tests =
  [
    Alcotest.test_case "record and snapshot" `Quick test_record_and_snapshot;
    Alcotest.test_case "equivalent evals" `Quick test_equivalent_evals;
    Alcotest.test_case "equivalent evals without full" `Quick
      test_equivalent_evals_no_full;
    Alcotest.test_case "diff and reset" `Quick test_diff_and_reset;
    Alcotest.test_case "domain-safe recording" `Quick test_domain_safe_recording;
    Alcotest.test_case "kinds" `Quick test_kinds;
    Alcotest.test_case "pp smoke" `Quick test_pp_smoke;
  ]
