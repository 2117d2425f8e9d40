module Json = Iddq_util.Json
module Iscas = Iddq_netlist.Iscas
module Pipeline = Iddq.Pipeline
module Spec = Iddq_campaign.Spec
module Job_result = Iddq_campaign.Job_result
module Store = Iddq_campaign.Store
module Runner = Iddq_campaign.Runner
module Summary = Iddq_campaign.Summary

let with_temp_store f =
  let path = Filename.temp_file "iddq-campaign-test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("null", Json.Null);
        ("bools", Json.List [ Json.Bool true; Json.Bool false ]);
        ("int", Json.Int (-42));
        ("floats", Json.List [ Json.Float 0.1; Json.Float 1.0e-9; Json.Float (-3.5) ]);
        ("string", Json.String "plain");
        ("nested", Json.Obj [ ("empty", Json.List []); ("o", Json.Obj []) ]);
      ]
  in
  match Json.parse (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "roundtrip equal" true (v = v')
  | Error e -> Alcotest.fail ("parse failed: " ^ e)

let test_json_float_fidelity () =
  (* floats must re-parse bit-exactly and stay floats (never collapse
     to Int), whatever the value *)
  List.iter
    (fun f ->
      match Json.parse (Json.to_string (Json.Float f)) with
      | Ok (Json.Float f') ->
        Alcotest.(check bool)
          (Printf.sprintf "%.17g survives" f)
          true
          (Int64.bits_of_float f = Int64.bits_of_float f')
      | Ok _ -> Alcotest.fail "float did not re-parse as Float"
      | Error e -> Alcotest.fail e)
    [ 0.1; 1.0; -0.0; 2.32e-3; 1.08e6; 4.163915816625631e-9; Float.pi ];
  (* non-finite floats keep their value through the string sentinels
     rather than degrading to null *)
  List.iter
    (fun (f, sentinel) ->
      Alcotest.(check string)
        (Printf.sprintf "%h sentinel" f)
        sentinel
        (Json.to_string (Json.Float f));
      match Json.parse (Json.to_string (Json.Float f)) with
      | Ok v ->
        Alcotest.(check bool)
          (Printf.sprintf "%h decodes back" f)
          true
          (match Json.to_float v with
          | Some f' -> Int64.bits_of_float f = Int64.bits_of_float f'
          | None -> false)
      | Error e -> Alcotest.fail e)
    [
      (Float.nan, "\"nan\"");
      (Float.infinity, "\"inf\"");
      (Float.neg_infinity, "\"-inf\"");
    ];
  Alcotest.(check bool) "int stays int" true
    (Json.parse "12345" = Ok (Json.Int 12345))

let test_json_string_escapes () =
  List.iter
    (fun s ->
      match Json.parse (Json.to_string (Json.String s)) with
      | Ok (Json.String s') -> Alcotest.(check string) "escaped string" s s'
      | Ok _ -> Alcotest.fail "string did not re-parse as String"
      | Error e -> Alcotest.fail e)
    [ "quotes \" and \\ backslash"; "tab\tnewline\ncr\r"; "ctrl \x01\x1f"; "" ]

let test_json_parse_errors () =
  let is_error s =
    match Json.parse s with Ok _ -> false | Error _ -> true
  in
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "%S rejected" s) true (is_error s))
    [
      ""; "{"; "[1,"; "\"unterminated"; "tru"; "{\"a\" 1}"; "1 2";
      "{\"a\":1,}"; "nul"; "[1] trailing";
    ];
  (* accessors are total *)
  Alcotest.(check bool) "member miss" true (Json.member "x" (Json.Obj []) = None);
  Alcotest.(check bool) "to_int of string" true (Json.to_int (Json.String "3") = None);
  Alcotest.(check bool) "to_float of int" true
    (Json.to_float (Json.Int 3) = Some 3.0)

(* ------------------------------------------------------------------ *)
(* Spec                                                                *)
(* ------------------------------------------------------------------ *)

let grid_spec =
  {
    Spec.default with
    Spec.circuits = [ "C17"; "C432" ];
    methods = [ Pipeline.Standard; Pipeline.Evolution ];
    seeds = [ 1; 2 ];
    module_sizes = [ None; Some 8 ];
  }

let test_spec_expansion () =
  let jobs = Spec.jobs grid_spec in
  Alcotest.(check int) "2x2x2x2 grid" 16 (List.length jobs);
  let ids = List.map (fun (j : Spec.job) -> j.Spec.id) jobs in
  Alcotest.(check int) "ids unique" 16 (List.length (List.sort_uniq compare ids));
  (* evolution is hoisted ahead of the standard job it feeds *)
  List.iter
    (fun (j : Spec.job) ->
      match j.Spec.depends_on with
      | None ->
        Alcotest.(check bool) "only standard depends" true
          (j.Spec.method_ = Pipeline.Evolution)
      | Some dep ->
        let dep_index =
          (List.find (fun (d : Spec.job) -> d.Spec.id = dep) jobs).Spec.index
        in
        Alcotest.(check bool) "dependency precedes dependent" true
          (dep_index < j.Spec.index))
    jobs

let test_spec_no_deps_variants () =
  (* without seed_reference_sizes, or without an evolution leg, no job
     waits on another *)
  let independent spec =
    List.for_all
      (fun (j : Spec.job) -> j.Spec.depends_on = None)
      (Spec.jobs spec)
  in
  Alcotest.(check bool) "seeding disabled" true
    (independent { grid_spec with Spec.seed_reference_sizes = false });
  Alcotest.(check bool) "no evolution leg" true
    (independent
       { grid_spec with Spec.methods = [ Pipeline.Standard; Pipeline.Random ] });
  (* duplicate grid entries collapse *)
  let doubled =
    { grid_spec with Spec.circuits = [ "C17"; "C17"; "C432" ]; seeds = [ 1; 1; 2 ] }
  in
  Alcotest.(check int) "duplicates collapsed" 16 (List.length (Spec.jobs doubled))

let test_spec_parse_roundtrip () =
  (match Spec.parse (Spec.to_string grid_spec) with
  | Ok s -> Alcotest.(check bool) "to_string/parse roundtrip" true (s = grid_spec)
  | Error e -> Alcotest.fail (Iddq_util.Io_error.to_string e));
  match
    Spec.parse
      "# comment\n\
       circuits = c17, C432\n\
       methods = evolution, standard\n\
       seeds = 3, 4\n\
       module-sizes = default, 12\n\
       max-generations = 50\n\
       timeout = 1.5\n"
  with
  | Ok s ->
    Alcotest.(check (list string)) "circuits" [ "C17"; "C432" ] s.Spec.circuits;
    Alcotest.(check bool) "sizes" true (s.Spec.module_sizes = [ None; Some 12 ]);
    Alcotest.(check bool) "generations" true (s.Spec.max_generations = Some 50);
    Alcotest.(check bool) "timeout" true (s.Spec.timeout = Some 1.5)
  | Error e -> Alcotest.fail (Iddq_util.Io_error.to_string e)

let test_spec_errors () =
  let rejects text =
    match Spec.parse text with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "unknown key" true (rejects "frobnicate = 3\n");
  Alcotest.(check bool) "unknown circuit" true (rejects "circuits = C999\n");
  Alcotest.(check bool) "unknown method" true (rejects "methods = magic\n");
  Alcotest.(check bool) "empty list" true (rejects "seeds =\n");
  Alcotest.(check bool) "validate empty circuits" true
    (Result.is_error (Spec.validate { grid_spec with Spec.circuits = [] }));
  Alcotest.(check bool) "validate bad size" true
    (Result.is_error
       (Spec.validate { grid_spec with Spec.module_sizes = [ Some 0 ] }))

(* ------------------------------------------------------------------ *)
(* Job_result codec                                                    *)
(* ------------------------------------------------------------------ *)

let sample_job () = List.hd (Spec.jobs { grid_spec with Spec.circuits = [ "C17" ] })

let sample_metrics () =
  let m = Iddq_util.Metrics.create () in
  Iddq_util.Metrics.record_full m ~gates:30 ~seconds:1e-4;
  Iddq_util.Metrics.snapshot m

let test_result_codec_roundtrip () =
  let job = sample_job () in
  let metrics = sample_metrics () in
  let check_roundtrip label r =
    match Job_result.of_line (Job_result.to_line r) with
    | Ok r' -> Alcotest.(check bool) (label ^ " roundtrip") true (r = r')
    | Error e -> Alcotest.fail (label ^ ": " ^ e)
  in
  check_roundtrip "failed"
    (Job_result.failure ~job ~derived_seed:17 ~elapsed:0.25 ~metrics
       "Invalid_argument(\"weird \\ chars\n\ttab\")");
  check_roundtrip "timeout"
    (Job_result.timed_out ~job ~derived_seed:17 ~elapsed:2.0 ~metrics ~limit:1.5);
  (* a real Done record, through the pipeline *)
  let circuit = Option.get (Iscas.by_name "C17") in
  let run = Pipeline.run Pipeline.Standard circuit in
  let done_ =
    Job_result.of_run ~job ~derived_seed:17 ~elapsed:0.1 ~metrics run
  in
  check_roundtrip "done" done_;
  Alcotest.(check bool) "done is_ok" true (Job_result.is_ok done_);
  Alcotest.(check bool) "to_line is one line" true
    (not (String.contains (Job_result.to_line done_) '\n'))

let test_result_bad_lines () =
  List.iter
    (fun line ->
      Alcotest.(check bool) (Printf.sprintf "%S rejected" line) true
        (Result.is_error (Job_result.of_line line)))
    [ ""; "{}"; "[1,2]"; "{\"job\":\"x\""; "not json at all" ]

(* Literal store lines written by earlier codec generations.  Whatever
   the in-memory counter representation becomes, these must keep
   decoding to the same counters, read back under the [metrics]
   response's canonical names. *)

(* PR-2 era: only the eight original evaluator keys. *)
let golden_line_8 =
  {|{"job":"C17/standard/s1","circuit":"C17","method":"standard","seed":1,"derived_seed":17,"module_size":null,"status":"ok","elapsed":0.5,"modules":2,"generations":0,"module_sizes":[3,3],"cost":1.5,"feasible":true,"area":2e-10,"nominal_delay":1.0,"bic_delay":1.25,"test_time":1.5,"min_disc":3.0,"metrics":{"full":7,"delta":11,"hits":13,"moves":17,"gates_full":19,"gates_delta":23,"sec_full":0.25,"sec_delta":0.125}}|}

(* PR-10 era: all 21 legacy keys. *)
let golden_line_21 =
  {|{"job":"C432/evolution/s2","circuit":"C432","method":"evolution","seed":2,"derived_seed":99,"module_size":8,"status":"timeout","timeout_s":1.5,"elapsed":2.0,"modules":0,"generations":0,"module_sizes":[],"cost":0.0,"feasible":false,"area":0.0,"nominal_delay":0.0,"bic_delay":0.0,"test_time":0.0,"min_disc":0.0,"metrics":{"full":1,"delta":2,"hits":3,"moves":4,"gates_full":5,"gates_delta":6,"sec_full":0.5,"sec_delta":0.25,"sim_blocks":7,"sim_fault_blocks":8,"sim_dropped":9,"sim_steals":10,"requests":11,"requests_failed":12,"sec_requests":0.75,"srv_hits":13,"srv_misses":14,"srv_evictions":15,"srv_sheds":16,"srv_queue_peak":17,"srv_wbuf_peak":18}}|}

let canonical_counters (s : Iddq_util.Metrics.snapshot) =
  match Iddq_util.Metrics.to_json s with
  | Json.Obj kvs -> List.sort compare kvs
  | _ -> Alcotest.fail "counter set is not a JSON object"

let expected_counters overrides =
  let zeros =
    List.map (fun k -> (k, Json.Int 0))
      [
        "requests"; "requests_failed"; "cache_hits"; "cache_misses";
        "cache_evictions"; "full_evals"; "delta_evals"; "eval_cache_hits";
        "moves"; "gates_full"; "gates_delta"; "sim_blocks";
        "sim_fault_blocks"; "sim_faults_dropped"; "sim_steals"; "sheds";
        "queue_peak"; "wbuf_peak";
      ]
    @ List.map (fun k -> (k, Json.Float 0.0))
        [ "seconds_requests"; "seconds_full"; "seconds_delta" ]
  in
  List.sort compare
    (List.map
       (fun (k, v) ->
         match List.assoc_opt k overrides with Some v' -> (k, v') | None -> (k, v))
       zeros)

let decode_golden line =
  match Job_result.of_line line with
  | Ok r -> r
  | Error e -> Alcotest.fail ("golden line rejected: " ^ e)

let counters_t = Alcotest.(list (pair string (testable (fun fmt j -> Format.pp_print_string fmt (Json.to_string j)) ( = ))))

let test_result_golden_lines () =
  let r8 = decode_golden golden_line_8 in
  Alcotest.(check string) "8-key job" "C17/standard/s1" r8.Job_result.job_id;
  Alcotest.(check (float 0.0)) "8-key cost" 1.5 r8.Job_result.cost;
  Alcotest.check counters_t "8-key counters, absent ones zero"
    (expected_counters
       [
         ("full_evals", Json.Int 7); ("delta_evals", Json.Int 11);
         ("eval_cache_hits", Json.Int 13); ("moves", Json.Int 17);
         ("gates_full", Json.Int 19); ("gates_delta", Json.Int 23);
         ("seconds_full", Json.Float 0.25); ("seconds_delta", Json.Float 0.125);
       ])
    (canonical_counters r8.Job_result.metrics);
  let r21 = decode_golden golden_line_21 in
  Alcotest.(check bool) "21-key status" true
    (r21.Job_result.status = Job_result.Timeout 1.5);
  Alcotest.check counters_t "21-key counters"
    (expected_counters
       [
         ("full_evals", Json.Int 1); ("delta_evals", Json.Int 2);
         ("eval_cache_hits", Json.Int 3); ("moves", Json.Int 4);
         ("gates_full", Json.Int 5); ("gates_delta", Json.Int 6);
         ("seconds_full", Json.Float 0.5); ("seconds_delta", Json.Float 0.25);
         ("sim_blocks", Json.Int 7); ("sim_fault_blocks", Json.Int 8);
         ("sim_faults_dropped", Json.Int 9); ("sim_steals", Json.Int 10);
         ("requests", Json.Int 11); ("requests_failed", Json.Int 12);
         ("seconds_requests", Json.Float 0.75); ("cache_hits", Json.Int 13);
         ("cache_misses", Json.Int 14); ("cache_evictions", Json.Int 15);
         ("sheds", Json.Int 16); ("queue_peak", Json.Int 17);
         ("wbuf_peak", Json.Int 18);
       ])
    (canonical_counters r21.Job_result.metrics);
  (* a counter present with the wrong JSON type is an error, for the
     original keys and the later ones alike *)
  List.iter
    (fun (good, bad) ->
      let n = String.length good in
      let rec find i =
        if String.sub golden_line_21 i n = good then i else find (i + 1)
      in
      let i = find 0 in
      let line =
        String.sub golden_line_21 0 i ^ bad
        ^ String.sub golden_line_21 (i + n) (String.length golden_line_21 - i - n)
      in
      Alcotest.(check bool) (bad ^ " rejected") true
        (Result.is_error (Job_result.of_line line)))
    [
      ({|"full":1|}, {|"full":"1"|});
      ({|"sec_full":0.5|}, {|"sec_full":true|});
      ({|"sim_blocks":7|}, {|"sim_blocks":"x"|});
      ({|"srv_queue_peak":17|}, {|"srv_queue_peak":17.5|});
      ({|"sec_requests":0.75|}, {|"sec_requests":null|});
    ]

(* Every declared counter, each holding a distinct value, survives the
   JSONL record and the service's [metrics] payload unchanged. *)
let test_counters_roundtrip () =
  let module M = Iddq_util.Metrics in
  let m = M.create () in
  List.iteri
    (fun i (M.Any c) ->
      match M.kind c with
      | M.Sum -> M.record m c ((i + 1) * 7)
      | M.Peak -> M.record m c ((i + 1) * 11)
      | M.Seconds -> M.record m c (float_of_int (i + 1) *. 0.125))
    M.all;
  let s = M.snapshot m in
  let zero = M.snapshot (M.create ()) in
  List.iter
    (fun (M.Any c) ->
      Alcotest.(check bool) (M.name c ^ " recorded") true
        (M.get s c <> M.get zero c))
    M.all;
  let r =
    Job_result.failure ~job:(sample_job ()) ~derived_seed:3 ~elapsed:0.5
      ~metrics:s "boom"
  in
  (match Job_result.of_line (Job_result.to_line r) with
  | Ok r' -> Alcotest.(check bool) "jsonl snapshot" true (r'.Job_result.metrics = s)
  | Error e -> Alcotest.fail e);
  let service = Iddq_server.Service.create ~metrics:m () in
  let resp, _ =
    Iddq_server.Service.handle service
      (Iddq_server.Protocol.request_to_json Iddq_server.Protocol.Metrics)
  in
  (match
     Result.map (Json.member "counters") (Iddq_server.Protocol.response_payload resp)
   with
  | Ok (Some counters) ->
    Alcotest.(check bool) "metrics payload snapshot" true
      (M.of_json counters = Ok s)
  | _ -> Alcotest.fail "metrics response lacks counters");
  Iddq_server.Service.stop service

(* ------------------------------------------------------------------ *)
(* Store                                                               *)
(* ------------------------------------------------------------------ *)

let open_store path =
  match Store.open_ path with
  | Ok s -> s
  | Error e -> Alcotest.failf "Store.open_: %s" (Iddq_util.Io_error.to_string e)

let test_store_latest_wins () =
  with_temp_store (fun path ->
      let job = sample_job () in
      let metrics = sample_metrics () in
      let failed =
        Job_result.failure ~job ~derived_seed:1 ~elapsed:0.0 ~metrics "boom"
      in
      let circuit = Option.get (Iscas.by_name "C17") in
      let ok =
        Job_result.of_run ~job ~derived_seed:1 ~elapsed:0.0 ~metrics
          (Pipeline.run Pipeline.Standard circuit)
      in
      let s = open_store path in
      Store.append s failed;
      Store.append s ok;
      Store.close s;
      let s = open_store path in
      Alcotest.(check int) "one id" 1 (Store.count s);
      Alcotest.(check int) "nothing dropped" 0 (Store.dropped s);
      (match Store.find s job.Spec.id with
      | Some r -> Alcotest.(check bool) "last line wins" true (Job_result.is_ok r)
      | None -> Alcotest.fail "record lost");
      Store.close s)

let test_store_tolerates_truncation () =
  with_temp_store (fun path ->
      let job = sample_job () in
      let metrics = sample_metrics () in
      let s = open_store path in
      Store.append s
        (Job_result.failure ~job ~derived_seed:1 ~elapsed:0.0 ~metrics "kept");
      Store.close s;
      (* simulate a kill mid-write: a half line with no newline *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"job\":\"C17:evolution";
      close_out oc;
      let s = open_store path in
      Alcotest.(check int) "good record kept" 1 (Store.count s);
      Alcotest.(check int) "torn line dropped" 1 (Store.dropped s);
      (* appending after a torn tail still yields parseable lines *)
      Store.append s
        (Job_result.failure ~job ~derived_seed:1 ~elapsed:0.0 ~metrics "after");
      Store.close s;
      let s = open_store path in
      (match Store.find s job.Spec.id with
      | Some { Job_result.status = Job_result.Failed m; _ } ->
        Alcotest.(check string) "append after tear wins" "after" m
      | _ -> Alcotest.fail "lost the post-tear record");
      Store.close s)

let test_result_nonfinite_roundtrip () =
  (* measurements can go non-finite (a degenerate partition's cost);
     the sentinel encoding must carry them through bit-exactly *)
  let job = sample_job () in
  let metrics = sample_metrics () in
  let r =
    {
      (Job_result.failure ~job ~derived_seed:3 ~elapsed:0.0 ~metrics "nf")
      with
      Job_result.cost = Float.nan;
      sensor_area = Float.infinity;
      nominal_delay = Float.neg_infinity;
    }
  in
  match Job_result.of_line (Job_result.to_line r) with
  | Error e -> Alcotest.failf "non-finite record rejected: %s" e
  | Ok r' ->
    (* structural compare: nan = nan under [compare] *)
    Alcotest.(check bool) "bit-exact through codec" true (compare r r' = 0)

(* Satellite: any byte-truncation point loses at most the record being
   written; [dropped] counts the torn tail; a later append never glues
   onto it. *)
let qcheck_store_torn_tail =
  QCheck.Test.make ~name:"store: truncation loses at most the final record"
    ~count:40
    QCheck.(pair (int_range 1 6) (int_range 0 10_000_000))
    (fun (n, cut_raw) ->
      with_temp_store (fun path ->
          let metrics = sample_metrics () in
          let jobs =
            Spec.jobs grid_spec |> List.filteri (fun i _ -> i <= n)
          in
          if List.length jobs < n + 1 then
            QCheck.Test.fail_report "grid_spec has too few jobs";
          let record job msg =
            Job_result.failure ~job ~derived_seed:1 ~elapsed:0.0 ~metrics msg
          in
          let written, fresh_job =
            match List.filteri (fun i _ -> i < n) jobs, List.nth jobs n with
            | w, f -> List.map (fun j -> record j "w") w, f
          in
          Sys.remove path;
          let s = open_store path in
          List.iter (Store.append s) written;
          Store.close s;
          let content =
            match Iddq_util.Io.read_file path with
            | Ok c -> c
            | Error e ->
              QCheck.Test.fail_reportf "read back: %s"
                (Iddq_util.Io_error.to_string e)
          in
          let size = String.length content in
          let cut = cut_raw mod (size + 1) in
          let truncated = String.sub content 0 cut in
          let full_lines =
            String.fold_left
              (fun acc ch -> if ch = '\n' then acc + 1 else acc)
              0 truncated
          in
          let partial = cut > 0 && truncated.[cut - 1] <> '\n' in
          let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
          Unix.ftruncate fd cut;
          Unix.close fd;
          let s = open_store path in
          let survived = Store.count s = full_lines in
          let counted = Store.dropped s = if partial then 1 else 0 in
          (* the torn tail must never swallow a subsequent append *)
          Store.append s (record fresh_job "appended");
          Store.close s;
          let s = open_store path in
          let appended_back =
            match Store.find s fresh_job.Spec.id with
            | Some { Job_result.status = Job_result.Failed m; _ } ->
              m = "appended"
            | _ -> false
          in
          let recount = Store.count s = full_lines + 1 in
          Store.close s;
          survived && counted && appended_back && recount))

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

let tiny_spec =
  {
    Spec.default with
    Spec.circuits = [ "C17"; "C432" ];
    methods = [ Pipeline.Evolution; Pipeline.Standard ];
    seeds = [ 1; 2 ];
    max_generations = Some 20;
  }

let run_spec ?domains ?resolve path spec =
  let store = open_store path in
  Fun.protect
    ~finally:(fun () -> Store.close store)
    (fun () ->
      match Runner.run ?domains ?resolve ~store spec with
      | Ok o -> o
      | Error e -> Alcotest.fail (Runner.error_to_string e))

let signature (results : Job_result.t list) =
  results
  |> List.map (fun r -> Job_result.to_line (Job_result.strip_timing r))
  |> List.sort compare

let test_runner_completes_and_resumes () =
  with_temp_store (fun path ->
      let first = run_spec ~domains:2 path tiny_spec in
      Alcotest.(check int) "all executed" 8 first.Runner.executed;
      Alcotest.(check int) "all ok" 8 first.Runner.ok;
      Alcotest.(check int) "none skipped" 0 first.Runner.skipped;
      let again = run_spec ~domains:2 path tiny_spec in
      Alcotest.(check int) "resume executes nothing" 0 again.Runner.executed;
      Alcotest.(check int) "resume skips all" 8 again.Runner.skipped;
      Alcotest.(check (list string)) "resume returns identical results"
        (signature first.Runner.results)
        (signature again.Runner.results))

let test_runner_deterministic_across_domains () =
  with_temp_store (fun path1 ->
      with_temp_store (fun path3 ->
          let r1 = run_spec ~domains:1 path1 tiny_spec in
          let r3 = run_spec ~domains:3 path3 tiny_spec in
          Alcotest.(check (list string))
            "1 domain and 3 domains agree modulo timing"
            (signature r1.Runner.results)
            (signature r3.Runner.results)))

let test_runner_seeds_standard_from_evolution () =
  with_temp_store (fun path ->
      let outcome = run_spec ~domains:2 path tiny_spec in
      let find method_ circuit =
        List.find
          (fun (r : Job_result.t) ->
            r.Job_result.method_ = method_
            && r.Job_result.circuit = circuit
            && r.Job_result.seed = 1)
          outcome.Runner.results
      in
      let evo = find Pipeline.Evolution "C432" in
      let std = find Pipeline.Standard "C432" in
      Alcotest.(check (list int)) "standard runs at evolution's sizes"
        (List.sort compare evo.Job_result.module_sizes)
        (List.sort compare std.Job_result.module_sizes))

let test_runner_derived_seeds () =
  let jobs = Spec.jobs tiny_spec in
  List.iter
    (fun (j : Spec.job) ->
      Alcotest.(check bool) "non-negative" true (Runner.derived_seed j >= 0);
      Alcotest.(check int) "stable" (Runner.derived_seed j) (Runner.derived_seed j))
    jobs;
  let seeds = List.map Runner.derived_seed jobs in
  Alcotest.(check int) "all distinct" (List.length jobs)
    (List.length (List.sort_uniq compare seeds))

let test_runner_isolates_crash_and_recovers () =
  (* a resolver that raises for one circuit: those jobs record Failed,
     the rest complete; a later run with a healthy resolver re-runs
     only the failures and converges to the uninterrupted aggregate *)
  let crashing name =
    if name = "C432" then failwith "injected resolver crash"
    else Iscas.by_name name
  in
  with_temp_store (fun broken_path ->
      with_temp_store (fun clean_path ->
          let broken = run_spec ~domains:2 ~resolve:crashing broken_path tiny_spec in
          Alcotest.(check int) "campaign survives the crashes" 8
            broken.Runner.executed;
          Alcotest.(check int) "C432 jobs failed" 4 broken.Runner.failed;
          Alcotest.(check int) "C17 jobs unaffected" 4 broken.Runner.ok;
          List.iter
            (fun (r : Job_result.t) ->
              match r.Job_result.status with
              | Job_result.Failed msg ->
                Alcotest.(check bool) "exception text recorded" true
                  (String.length msg > 0)
              | _ -> ())
            broken.Runner.results;
          (* recovery run: only the 4 failures re-execute *)
          let recovered = run_spec ~domains:2 broken_path tiny_spec in
          Alcotest.(check int) "only failures re-run" 4 recovered.Runner.executed;
          Alcotest.(check int) "healthy jobs resumed" 4 recovered.Runner.skipped;
          Alcotest.(check int) "all ok after recovery" 8 recovered.Runner.ok;
          let clean = run_spec ~domains:2 clean_path tiny_spec in
          Alcotest.(check (list string)) "same results as uninterrupted"
            (signature clean.Runner.results)
            (signature recovered.Runner.results);
          Alcotest.(check bool) "same Table-1 aggregate" true
            (Summary.table1_rows recovered.Runner.results
            = Summary.table1_rows clean.Runner.results)))

let test_runner_resumes_after_torn_store () =
  with_temp_store (fun torn_path ->
      with_temp_store (fun clean_path ->
          let clean = run_spec ~domains:2 clean_path tiny_spec in
          let _ = run_spec ~domains:2 torn_path tiny_spec in
          (* kill simulation: chop the file mid-way through its last line *)
          let size = (Unix.stat torn_path).Unix.st_size in
          let fd = Unix.openfile torn_path [ Unix.O_WRONLY ] 0o644 in
          Unix.ftruncate fd (size - 40);
          Unix.close fd;
          let resumed = run_spec ~domains:2 torn_path tiny_spec in
          Alcotest.(check bool) "only the torn job re-ran" true
            (resumed.Runner.executed >= 1 && resumed.Runner.executed < 8);
          Alcotest.(check int) "complete again" 8 resumed.Runner.ok;
          Alcotest.(check (list string)) "aggregate matches uninterrupted"
            (signature clean.Runner.results)
            (signature resumed.Runner.results)))

let test_runner_timeout_records_and_reruns () =
  let spec = { tiny_spec with Spec.circuits = [ "C17" ]; Spec.timeout = Some 0.0 } in
  with_temp_store (fun path ->
      let strict = run_spec ~domains:2 path spec in
      Alcotest.(check int) "every job over a zero budget" 4
        strict.Runner.timed_out;
      Alcotest.(check int) "none ok" 0 strict.Runner.ok;
      (* timeouts are not checkpoints: lifting the budget re-runs them *)
      let relaxed = run_spec ~domains:2 path { spec with Spec.timeout = None } in
      Alcotest.(check int) "timed-out jobs re-ran" 4 relaxed.Runner.executed;
      Alcotest.(check int) "now ok" 4 relaxed.Runner.ok)

let test_runner_rejects_invalid_spec () =
  with_temp_store (fun path ->
      let store = open_store path in
      Fun.protect
        ~finally:(fun () -> Store.close store)
        (fun () ->
          match
            Runner.run ~store { tiny_spec with Spec.circuits = [ "C999" ] }
          with
          | Ok _ -> Alcotest.fail "invalid spec accepted"
          | Error (Runner.Invalid_spec msg) ->
            Alcotest.(check bool)
              "error names the circuit" true
              (let re = "C999" in
               let len = String.length re in
               let n = String.length msg in
               let rec contains i =
                 i + len <= n && (String.sub msg i len = re || contains (i + 1))
               in
               contains 0)))

let tests =
  [
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json float fidelity" `Quick test_json_float_fidelity;
    Alcotest.test_case "json string escapes" `Quick test_json_string_escapes;
    Alcotest.test_case "json parse errors" `Quick test_json_parse_errors;
    Alcotest.test_case "spec expansion" `Quick test_spec_expansion;
    Alcotest.test_case "spec dependency variants" `Quick test_spec_no_deps_variants;
    Alcotest.test_case "spec parse roundtrip" `Quick test_spec_parse_roundtrip;
    Alcotest.test_case "spec errors" `Quick test_spec_errors;
    Alcotest.test_case "result codec roundtrip" `Quick test_result_codec_roundtrip;
    Alcotest.test_case "result bad lines" `Quick test_result_bad_lines;
    Alcotest.test_case "result golden lines" `Quick test_result_golden_lines;
    Alcotest.test_case "counters roundtrip" `Quick test_counters_roundtrip;
    Alcotest.test_case "store latest wins" `Quick test_store_latest_wins;
    Alcotest.test_case "store tolerates truncation" `Quick
      test_store_tolerates_truncation;
    Alcotest.test_case "result non-finite roundtrip" `Quick
      test_result_nonfinite_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_store_torn_tail;
    Alcotest.test_case "runner completes and resumes" `Slow
      test_runner_completes_and_resumes;
    Alcotest.test_case "runner deterministic across domains" `Slow
      test_runner_deterministic_across_domains;
    Alcotest.test_case "runner seeds standard from evolution" `Slow
      test_runner_seeds_standard_from_evolution;
    Alcotest.test_case "runner derived seeds" `Quick test_runner_derived_seeds;
    Alcotest.test_case "runner isolates crashes" `Slow
      test_runner_isolates_crash_and_recovers;
    Alcotest.test_case "runner resumes after torn store" `Slow
      test_runner_resumes_after_torn_store;
    Alcotest.test_case "runner timeout semantics" `Slow
      test_runner_timeout_records_and_reruns;
    Alcotest.test_case "runner rejects invalid spec" `Quick
      test_runner_rejects_invalid_spec;
  ]
