module Json = Iddq_util.Json
module Metrics = Iddq_util.Metrics
module Rng = Iddq_util.Rng
module Io_error = Iddq_util.Io_error
module Circuit = Iddq_netlist.Circuit
module Bench_io = Iddq_netlist.Bench_io
module Iscas = Iddq_netlist.Iscas
module Partition = Iddq_core.Partition
module Cost = Iddq_core.Cost
module Pipeline = Iddq.Pipeline
module Spec = Iddq_campaign.Spec
module Store = Iddq_campaign.Store
module Runner = Iddq_campaign.Runner

type campaign_state =
  | Running
  | Finished of Runner.outcome
  | Failed_run of string

type campaign = {
  state : campaign_state ref;
  store_path : string;
  jobs : int;
}

type t = {
  cache : Cache.t;
  metrics : Metrics.t;
  budget : float option;
  lock : Mutex.t;  (* campaign registry *)
  campaigns : (string, campaign) Hashtbl.t;
  mutable campaign_domains : unit Domain.t list;
  mutable next_campaign : int;
}

let create ?metrics ?library ?budget ?cache_entries () =
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  {
    cache = Cache.create ~metrics ?library ?max_entries:cache_entries ();
    metrics;
    budget;
    lock = Mutex.create ();
    campaigns = Hashtbl.create 8;
    campaign_domains = [];
    next_campaign = 0;
  }

let metrics t = t.metrics

(* FNV-1a over the cache key: the campaign runner's stream-derivation
   discipline applied to requests. *)
let fnv1a64 s =
  let prime = 0x100000001B3L in
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h prime)
    s;
  !h

let derived_seed ~key ~seed =
  let stream = Int64.to_int (Int64.shift_right_logical (fnv1a64 key) 2) in
  let rng = Rng.derive (Rng.create seed) stream in
  Int64.to_int (Int64.shift_right_logical (Rng.bits64 rng) 2)

(* ------------------------------------------------------------------ *)
(* Payload builders                                                    *)
(* ------------------------------------------------------------------ *)

let circuit_payload ~handle c =
  let s = Circuit.stats c in
  Json.Obj
    [
      ("handle", Json.String handle);
      ("name", Json.String (Circuit.name c));
      ("inputs", Json.Int s.Circuit.s_inputs);
      ("outputs", Json.Int s.Circuit.s_outputs);
      ("gates", Json.Int s.Circuit.s_gates);
      ("depth", Json.Int s.Circuit.s_depth);
    ]

let partition_payload (r : Pipeline.t) =
  let sizes =
    List.map
      (fun id -> Partition.size r.Pipeline.partition id)
      (Partition.module_ids r.Pipeline.partition)
  in
  let b = r.Pipeline.breakdown in
  Json.Obj
    [
      ("method", Json.String (Pipeline.method_to_string r.Pipeline.method_used));
      ("modules", Json.Int (Partition.num_modules r.Pipeline.partition));
      ("module_sizes", Json.List (List.map (fun s -> Json.Int s) sizes));
      ("generations", Json.Int r.Pipeline.generations);
      ("cost", Json.Float b.Cost.penalized);
      ("feasible", Json.Bool b.Cost.feasible);
      ("sensor_area", Json.Float b.Cost.sensor_area);
      ("nominal_delay", Json.Float b.Cost.nominal_delay);
      ("bic_delay", Json.Float b.Cost.bic_delay);
      ("test_time_per_vector", Json.Float b.Cost.test_time_per_vector);
      ("min_discriminability", Json.Float b.Cost.min_discriminability);
    ]

let sim_payload (r : Iddq_defects.Iddq_sim.result) =
  Json.Obj
    [
      ("coverage", Json.Float r.Iddq_defects.Iddq_sim.coverage);
      ("test_time", Json.Float r.Iddq_defects.Iddq_sim.test_time);
    ]

(* ------------------------------------------------------------------ *)
(* Handlers                                                            *)
(* ------------------------------------------------------------------ *)

let find_circuit t handle =
  match Cache.find_circuit t.cache handle with
  | Some c -> Ok c
  | None ->
    Error
      (Protocol.error Protocol.Not_found
         (Printf.sprintf "unknown circuit handle %S (load_circuit first)"
            handle))

let load_circuit t ~name ~bench =
  match name, bench with
  | Some n, None -> begin
    match Iscas.by_name n with
    | Some c -> Ok (Cache.add_circuit t.cache c, c)
    | None ->
      Error
        (Protocol.error Protocol.Not_found
           (Printf.sprintf "unknown circuit %S (try %s)" n
              (String.concat ", " Iscas.names)))
  end
  | None, Some text -> begin
    match Bench_io.parse_string ~name:"client" text with
    | Ok c -> Ok (Cache.add_circuit t.cache c, c)
    | Error e ->
      Error
        (Protocol.error Protocol.Bad_request
           ("bench parse: " ^ Io_error.to_string e))
  end
  | _ ->
    (* request decoding enforces exactly-one; belt and braces *)
    Error (Protocol.error Protocol.Bad_request "need \"name\" xor \"bench\"")

let module_size_key = function None -> "-" | Some s -> string_of_int s

let run_partition t ~handle ~method_ ~seed ~module_size ~require_feasible c =
  let key =
    Printf.sprintf "%s:partition:%s:%s" handle
      (Pipeline.method_to_string method_)
      (module_size_key module_size)
  in
  let config =
    Pipeline.config
      ~seed:(derived_seed ~key ~seed)
      ?module_size ~metrics:t.metrics ()
  in
  let ch = Cache.charac t.cache ~handle c in
  Result.map_error Protocol.of_pipeline_error
    (Pipeline.run_charac_result ~config ~require_feasible method_ ch)

let fault_sim t ~handle ~method_ ~seed ~vectors ~defects ~defect_current c =
  match
    run_partition t ~handle ~method_ ~seed ~module_size:None
      ~require_feasible:false c
  with
  | Error e -> Error e
  | Ok r ->
    let vec_seed = derived_seed ~key:(handle ^ ":vectors") ~seed in
    let vs, _packed = Cache.vectors t.cache ~handle ~seed:vec_seed ~count:vectors c in
    let fault_rng = Rng.create (derived_seed ~key:(handle ^ ":faults") ~seed) in
    let faults =
      Iddq_defects.Fault.random_population ~rng:fault_rng c ~count:defects
        ~defect_current
    in
    let part =
      Iddq_defects.Iddq_sim.run_partitioned ~metrics:t.metrics
        r.Pipeline.partition ~vectors:vs ~faults
    in
    let single =
      Iddq_defects.Iddq_sim.run_single_sensor ~metrics:t.metrics
        r.Pipeline.charac ~vectors:vs ~faults
    in
    Ok
      (Json.Obj
         [
           ("handle", Json.String handle);
           ("defects", Json.Int defects);
           ("vectors", Json.Int vectors);
           ("modules", Json.Int (Partition.num_modules r.Pipeline.partition));
           ("partitioned", sim_payload part);
           ("single_sensor", sim_payload single);
         ])

let diagnose t ~handle ~method_ ~seed ~vectors ~defects ~defect_current
    ~epsilon ~trials ~top_k c =
  match
    run_partition t ~handle ~method_ ~seed ~module_size:None
      ~require_feasible:false c
  with
  | Error e -> Error e
  | Ok r ->
    (* The engine key omits the measurement parameters on purpose:
       epsilon/trials/top_k sweeps reuse one simulated matrix. *)
    let key =
      Printf.sprintf "%s:diagnose:%s:%d:%d:%d:%h" handle
        (Pipeline.method_to_string method_)
        seed vectors defects defect_current
    in
    (* Fetched before the diagnosis memo: the cache mutex is not
       re-entrant, so nesting the vectors lookup inside the compute
       closure would self-deadlock. *)
    let vec_seed = derived_seed ~key:(handle ^ ":vectors") ~seed in
    let vs, _packed =
      Cache.vectors t.cache ~handle ~seed:vec_seed ~count:vectors c
    in
    let engine =
      Cache.diagnosis t.cache ~key (fun () ->
          let fault_rng =
            Rng.create (derived_seed ~key:(handle ^ ":faults") ~seed)
          in
          let faults =
            Iddq_defects.Fault.random_population ~rng:fault_rng c
              ~count:defects ~defect_current
          in
          Iddq_diagnose.Diagnose.build ~metrics:t.metrics r.Pipeline.partition
            ~vectors:vs ~faults)
    in
    let s = Iddq_diagnose.Diagnose.diagnosability engine in
    (* Trials draw from a stream keyed by the full request, so replies
       are a pure function of the request whether or not the engine was
       cached. *)
    let trial_rng =
      Rng.create
        (derived_seed
           ~key:(Printf.sprintf "%s:trials:%h:%d:%d" key epsilon trials top_k)
           ~seed)
    in
    let acc =
      Iddq_diagnose.Diagnose.measure_accuracy ~rng:trial_rng ~epsilon ~top_k
        ~trials engine
    in
    Ok
      (Json.Obj
         [
           ("handle", Json.String handle);
           ("modules", Json.Int (Iddq_diagnose.Diagnose.num_modules engine));
           ("vectors", Json.Int vectors);
           ("faults", Json.Int s.Iddq_diagnose.Diagnose.faults);
           ("detectable", Json.Int s.Iddq_diagnose.Diagnose.detectable);
           ("classes", Json.Int s.Iddq_diagnose.Diagnose.classes);
           ("silent", Json.Int s.Iddq_diagnose.Diagnose.silent);
           ("max_class", Json.Int s.Iddq_diagnose.Diagnose.max_class);
           ( "expected_ambiguity",
             Json.Float s.Iddq_diagnose.Diagnose.expected_ambiguity );
           ("entropy_bits", Json.Float s.Iddq_diagnose.Diagnose.entropy_bits);
           ( "diagnosability_cost",
             Json.Float (Iddq_diagnose.Diagnose.c6_diagnosability engine) );
           ("epsilon", Json.Float epsilon);
           ("trials", Json.Int acc.Iddq_diagnose.Diagnose.trials);
           ("top_k", Json.Int top_k);
           ( "top1_class_accuracy",
             Json.Float acc.Iddq_diagnose.Diagnose.top1_class );
           ( "top1_module_accuracy",
             Json.Float acc.Iddq_diagnose.Diagnose.top1_module );
           ( "topk_module_accuracy",
             Json.Float acc.Iddq_diagnose.Diagnose.topk_module );
         ])

let testset t ~handle ~seed ~random_vectors ~max_backtracks ~budget ~strategy c
    =
  (* The generation key omits the strategy on purpose: the cached
     result carries the full-set detection matrix, so strategy sweeps
     re-minimize one generated set instead of re-running PODEM. *)
  let key =
    Printf.sprintf "%s:testset:%d:%d:%d:%d" handle seed random_vectors
      max_backtracks
      (match budget with None -> 0 | Some b -> b)
  in
  let generated =
    Cache.testset t.cache ~key (fun () ->
        let config =
          Iddq_atpg.Atpg.config ~max_backtracks ?budget
            ~strategy:Iddq_atpg.Atpg.Greedy
            ~seed:(derived_seed ~key ~seed) ~random_vectors ()
        in
        Iddq_atpg.Atpg.run_result ~config c)
  in
  match generated with
  | Error e -> Error (Protocol.of_atpg_error e)
  | Ok r -> begin
    let selection =
      if strategy = r.Iddq_atpg.Atpg.strategy then
        Ok r.Iddq_atpg.Atpg.selected
      else
        Iddq_atpg.Atpg.minimize_result ~strategy r.Iddq_atpg.Atpg.matrix
    in
    match selection with
    | Error e -> Error (Protocol.of_atpg_error e)
    | Ok selected ->
      let stats = r.Iddq_atpg.Atpg.stats in
      Ok
        (Json.Obj
           [
             ("handle", Json.String handle);
             ( "strategy",
               Json.String (Iddq_atpg.Atpg.strategy_to_string strategy) );
             ( "faults",
               Json.Int
                 (Iddq_defects.Coverage.num_faults r.Iddq_atpg.Atpg.matrix) );
             ("vectors_before", Json.Int r.Iddq_atpg.Atpg.vectors_before);
             ("vectors", Json.Int (Array.length selected));
             ("coverage", Json.Float r.Iddq_atpg.Atpg.coverage);
             ("efficiency", Json.Float r.Iddq_atpg.Atpg.efficiency);
             ("random", Json.Int stats.Iddq_atpg.Testset.random);
             ("generated", Json.Int stats.Iddq_atpg.Testset.generated);
             ("untestable", Json.Int stats.Iddq_atpg.Testset.untestable);
             ("aborted", Json.Int stats.Iddq_atpg.Testset.aborted);
             ("targeted", Json.Int stats.Iddq_atpg.Testset.targeted);
           ])
  end

let campaign_submit t ~spec ~domains =
  match Spec.parse spec with
  | Error e ->
    Error
      (Protocol.error Protocol.Bad_request ("spec parse: " ^ Io_error.to_string e))
  | Ok spec -> begin
    match Spec.validate spec with
    | Error e -> Error (Protocol.error Protocol.Bad_request ("invalid spec: " ^ e))
    | Ok () ->
      let store_path = Filename.temp_file "iddq-serve-campaign" ".jsonl" in
      let jobs = List.length (Spec.jobs spec) in
      let state = ref Running in
      let campaign_id =
        Mutex.lock t.lock;
        t.next_campaign <- t.next_campaign + 1;
        let id = Printf.sprintf "campaign-%d" t.next_campaign in
        Hashtbl.replace t.campaigns id { state; store_path; jobs };
        Mutex.unlock t.lock;
        id
      in
      let work () =
        let outcome =
          match Store.open_ store_path with
          | Error e -> Error ("store: " ^ Io_error.to_string e)
          | Ok store ->
            Fun.protect
              ~finally:(fun () -> Store.close store)
              (fun () ->
                match Runner.run ~domains ~store spec with
                | Ok o -> Ok o
                | Error e -> Error (Runner.error_to_string e))
        in
        Mutex.lock t.lock;
        (state :=
           match outcome with
           | Ok o -> Finished o
           | Error msg -> Failed_run msg);
        Mutex.unlock t.lock
      in
      let d =
        try Ok (Domain.spawn (fun () -> try work () with _ -> ()))
        with e -> Error (Printexc.to_string e)
      in
      begin
        match d with
        | Ok d ->
          Mutex.lock t.lock;
          t.campaign_domains <- d :: t.campaign_domains;
          Mutex.unlock t.lock;
          Ok
            (Json.Obj
               [
                 ("campaign", Json.String campaign_id);
                 ("jobs", Json.Int jobs);
                 ("store", Json.String store_path);
               ])
        | Error msg ->
          Error (Protocol.error Protocol.Internal ("spawn failed: " ^ msg))
      end
  end

let campaign_status t ~campaign =
  Mutex.lock t.lock;
  let entry = Hashtbl.find_opt t.campaigns campaign in
  let state = Option.map (fun c -> (c, !(c.state))) entry in
  Mutex.unlock t.lock;
  match state with
  | None ->
    Error
      (Protocol.error Protocol.Not_found
         (Printf.sprintf "unknown campaign %S" campaign))
  | Some (c, st) ->
    let base =
      [
        ("campaign", Json.String campaign);
        ("jobs", Json.Int c.jobs);
        ("store", Json.String c.store_path);
      ]
    in
    Ok
      (Json.Obj
         (base
         @
         match st with
         | Running -> [ ("state", Json.String "running") ]
         | Failed_run msg ->
           [ ("state", Json.String "failed"); ("message", Json.String msg) ]
         | Finished o ->
           [
             ("state", Json.String "done");
             ("executed", Json.Int o.Runner.executed);
             ("skipped", Json.Int o.Runner.skipped);
             ("ok", Json.Int o.Runner.ok);
             ("failed", Json.Int o.Runner.failed);
             ("timed_out", Json.Int o.Runner.timed_out);
           ]))

let metrics_payload t =
  let s = Cache.stats t.cache in
  Json.Obj
    [
      ("counters", Metrics.to_json (Metrics.snapshot t.metrics));
      ( "cache",
        Json.Obj
          [
            ("circuits", Json.Int s.Cache.circuits);
            ("characs", Json.Int s.Cache.characs);
            ("vector_sets", Json.Int s.Cache.vector_sets);
            ("diagnoses", Json.Int s.Cache.diagnoses);
            ("testsets", Json.Int s.Cache.testsets);
          ] );
    ]

let dispatch t (req : Protocol.request) =
  match req with
  | Protocol.Load_circuit { name; bench } ->
    Result.map
      (fun (handle, c) -> circuit_payload ~handle c)
      (load_circuit t ~name ~bench)
  | Protocol.Characterize { handle } ->
    Result.map
      (fun c ->
        let ch = Cache.charac t.cache ~handle c in
        Json.Obj
          [
            ("handle", Json.String handle);
            ("gates", Json.Int (Iddq_analysis.Charac.num_gates ch));
            ("depth", Json.Int (Iddq_analysis.Charac.depth ch));
          ])
      (find_circuit t handle)
  | Protocol.Partition { handle; method_; seed; module_size; require_feasible }
    ->
    Result.bind (find_circuit t handle) (fun c ->
        Result.map partition_payload
          (run_partition t ~handle ~method_ ~seed ~module_size
             ~require_feasible c))
  | Protocol.Fault_sim { handle; method_; seed; vectors; defects; defect_current }
    ->
    Result.bind (find_circuit t handle) (fun c ->
        fault_sim t ~handle ~method_ ~seed ~vectors ~defects ~defect_current c)
  | Protocol.Diagnose
      {
        handle;
        method_;
        seed;
        vectors;
        defects;
        defect_current;
        epsilon;
        trials;
        top_k;
      } ->
    Result.bind (find_circuit t handle) (fun c ->
        diagnose t ~handle ~method_ ~seed ~vectors ~defects ~defect_current
          ~epsilon ~trials ~top_k c)
  | Protocol.Testset
      { handle; seed; random_vectors; max_backtracks; budget; strategy } ->
    Result.bind (find_circuit t handle) (fun c ->
        testset t ~handle ~seed ~random_vectors ~max_backtracks ~budget
          ~strategy c)
  | Protocol.Campaign_submit { spec; domains } ->
    campaign_submit t ~spec ~domains
  | Protocol.Campaign_status { campaign } -> campaign_status t ~campaign
  | Protocol.Metrics -> Ok (metrics_payload t)
  | Protocol.Shutdown -> Ok (Json.Obj [ ("shutting_down", Json.Bool true) ])

let handle t j =
  let t0 = Unix.gettimeofday () in
  let id, result, stop =
    match Protocol.request_of_json j with
    | Error (id, err) -> (id, Error err, false)
    | Ok (id, req) ->
      let result =
        (* runner-style isolation: an escaped exception is this
           request's error, never the connection's *)
        try dispatch t req
        with e ->
          Error (Protocol.error Protocol.Internal (Printexc.to_string e))
      in
      (id, result, req = Protocol.Shutdown)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  let result =
    match t.budget, result with
    | Some limit, Ok _ when elapsed > limit && not stop ->
      Error
        (Protocol.error Protocol.Budget_exceeded
           (Printf.sprintf "request took %.3fs (budget %.3fs)" elapsed limit))
    | _ -> result
  in
  Metrics.incr t.metrics Metrics.requests;
  if Result.is_error result then Metrics.incr t.metrics Metrics.requests_failed;
  Metrics.record t.metrics Metrics.seconds_requests elapsed;
  let resp =
    match result with
    | Ok payload -> Protocol.ok_response ~id payload
    | Error err -> Protocol.error_response ~id err
  in
  (resp, if stop then `Shutdown else `Continue)

let stop t =
  Mutex.lock t.lock;
  let domains = t.campaign_domains in
  t.campaign_domains <- [];
  Mutex.unlock t.lock;
  List.iter Domain.join domains
