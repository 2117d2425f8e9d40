module Json = Iddq_util.Json
module Pipeline = Iddq.Pipeline

type request =
  | Load_circuit of { name : string option; bench : string option }
  | Characterize of { handle : string }
  | Partition of {
      handle : string;
      method_ : Pipeline.method_;
      seed : int;
      module_size : int option;
      require_feasible : bool;
    }
  | Fault_sim of {
      handle : string;
      method_ : Pipeline.method_;
      seed : int;
      vectors : int;
      defects : int;
      defect_current : float;
    }
  | Diagnose of {
      handle : string;
      method_ : Pipeline.method_;
      seed : int;
      vectors : int;
      defects : int;
      defect_current : float;
      epsilon : float;
      trials : int;
      top_k : int;
    }
  | Testset of {
      handle : string;
      seed : int;
      random_vectors : int;
      max_backtracks : int;
      budget : int option;
      strategy : Iddq_atpg.Atpg.strategy;
    }
  | Campaign_submit of { spec : string; domains : int }
  | Campaign_status of { campaign : string }
  | Metrics
  | Shutdown

type error_code =
  | Bad_request
  | Unknown_op
  | Not_found
  | Infeasible
  | Malformed_frame
  | Oversized_frame
  | Budget_exceeded
  | Overloaded
  | Internal

type error = { code : error_code; message : string }

let error code message = { code; message }

let code_to_string = function
  | Bad_request -> "bad_request"
  | Unknown_op -> "unknown_op"
  | Not_found -> "not_found"
  | Infeasible -> "infeasible"
  | Malformed_frame -> "malformed_frame"
  | Oversized_frame -> "oversized_frame"
  | Budget_exceeded -> "budget_exceeded"
  | Overloaded -> "overloaded"
  | Internal -> "internal"

let code_of_string = function
  | "bad_request" -> Some Bad_request
  | "unknown_op" -> Some Unknown_op
  | "not_found" -> Some Not_found
  | "infeasible" -> Some Infeasible
  | "malformed_frame" -> Some Malformed_frame
  | "oversized_frame" -> Some Oversized_frame
  | "budget_exceeded" -> Some Budget_exceeded
  | "overloaded" -> Some Overloaded
  | "internal" -> Some Internal
  | _ -> None

let of_pipeline_error (e : Pipeline.error) =
  let message = Pipeline.error_to_string e in
  match e with
  | Pipeline.Empty_circuit | Pipeline.Bad_config _ -> error Bad_request message
  | Pipeline.Characterization_failed _ -> error Bad_request message
  | Pipeline.Infeasible _ -> error Infeasible message
  | Pipeline.Internal _ -> error Internal message

let of_atpg_error (e : Iddq_atpg.Atpg.error) =
  let message = Iddq_atpg.Atpg.error_to_string e in
  match e with
  | Iddq_atpg.Atpg.Empty_fault_list | Iddq_atpg.Atpg.Bad_config _
  | Iddq_atpg.Atpg.Fault_mismatch _ ->
    error Bad_request message
  | Iddq_atpg.Atpg.Budget_exhausted _ -> error Budget_exceeded message
  | Iddq_atpg.Atpg.Internal _ -> error Internal message

(* ------------------------------------------------------------------ *)
(* Request codec                                                       *)
(* ------------------------------------------------------------------ *)

let default_seed = 42
let default_vectors = 64
let default_defects = 200
let default_defect_current = 2.0e-6
let default_domains = 1
let default_epsilon = 0.0
let default_trials = 20
let default_top_k = 3
let default_random_vectors = Iddq_atpg.Atpg.default_config.random_vectors
let default_max_backtracks = Iddq_atpg.Atpg.default_config.max_backtracks

let member_id j = Option.bind (Json.member "id" j) Json.to_int

let request_of_json j =
  let id = member_id j in
  let fail code msg = Error (id, error code msg) in
  let str_field name = Option.bind (Json.member name j) Json.to_str in
  let int_field name ~default =
    match Json.member name j with
    | None -> Ok default
    | Some v -> begin
      match Json.to_int v with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "field %S must be an integer" name)
    end
  in
  let required_str name k =
    match str_field name with
    | Some s -> k s
    | None -> fail Bad_request (Printf.sprintf "missing string field %S" name)
  in
  let with_int name ~default k =
    match int_field name ~default with
    | Ok v -> k v
    | Error msg -> fail Bad_request msg
  in
  let with_method k =
    match Json.member "method" j with
    | None -> k Pipeline.Evolution
    | Some v -> begin
      match Option.bind (Json.to_str v) Pipeline.method_of_string with
      | Some m -> k m
      | None -> fail Bad_request "field \"method\" is not a known method"
    end
  in
  match Json.member "op" j with
  | None -> fail Bad_request "missing \"op\" field"
  | Some op_j -> begin
    match Json.to_str op_j with
    | None -> fail Bad_request "\"op\" must be a string"
    | Some op -> begin
      match op with
      | "load_circuit" -> begin
        let name = str_field "name" and bench = str_field "bench" in
        match name, bench with
        | None, None ->
          fail Bad_request "load_circuit needs \"name\" or \"bench\""
        | Some _, Some _ ->
          fail Bad_request "load_circuit takes \"name\" or \"bench\", not both"
        | _ -> Ok (id, Load_circuit { name; bench })
      end
      | "characterize" ->
        required_str "handle" (fun handle -> Ok (id, Characterize { handle }))
      | "partition" ->
        required_str "handle" (fun handle ->
            with_method (fun method_ ->
                with_int "seed" ~default:default_seed (fun seed ->
                    let module_size =
                      Option.bind (Json.member "module_size" j) Json.to_int
                    in
                    let require_feasible =
                      match
                        Option.bind (Json.member "require_feasible" j)
                          Json.to_bool
                      with
                      | Some b -> b
                      | None -> false
                    in
                    Ok
                      ( id,
                        Partition
                          { handle; method_; seed; module_size; require_feasible }
                      ))))
      | "fault_sim" ->
        required_str "handle" (fun handle ->
            with_method (fun method_ ->
                with_int "seed" ~default:default_seed (fun seed ->
                    with_int "vectors" ~default:default_vectors (fun vectors ->
                        with_int "defects" ~default:default_defects
                          (fun defects ->
                            let defect_current =
                              match
                                Option.bind
                                  (Json.member "defect_current" j)
                                  Json.to_float
                              with
                              | Some c -> c
                              | None -> default_defect_current
                            in
                            if vectors < 1 || defects < 1 then
                              fail Bad_request
                                "fault_sim needs positive \"vectors\" and \
                                 \"defects\""
                            else
                              Ok
                                ( id,
                                  Fault_sim
                                    {
                                      handle;
                                      method_;
                                      seed;
                                      vectors;
                                      defects;
                                      defect_current;
                                    } ))))))
      | "diagnose" ->
        required_str "handle" (fun handle ->
            with_method (fun method_ ->
                with_int "seed" ~default:default_seed (fun seed ->
                    with_int "vectors" ~default:default_vectors (fun vectors ->
                        with_int "defects" ~default:default_defects
                          (fun defects ->
                            with_int "trials" ~default:default_trials
                              (fun trials ->
                                with_int "top_k" ~default:default_top_k
                                  (fun top_k ->
                                    let defect_current =
                                      match
                                        Option.bind
                                          (Json.member "defect_current" j)
                                          Json.to_float
                                      with
                                      | Some c -> c
                                      | None -> default_defect_current
                                    in
                                    let epsilon =
                                      match
                                        Option.bind (Json.member "epsilon" j)
                                          Json.to_float
                                      with
                                      | Some e -> e
                                      | None -> default_epsilon
                                    in
                                    if
                                      vectors < 1 || defects < 1 || trials < 1
                                      || top_k < 1
                                    then
                                      fail Bad_request
                                        "diagnose needs positive \"vectors\", \
                                         \"defects\", \"trials\" and \"top_k\""
                                    else if epsilon < 0. || epsilon >= 0.5 then
                                      fail Bad_request
                                        "\"epsilon\" must lie in [0, 0.5)"
                                    else
                                      Ok
                                        ( id,
                                          Diagnose
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
                                            } ))))))))
      | "testset" ->
        required_str "handle" (fun handle ->
            with_int "seed" ~default:default_seed (fun seed ->
                with_int "random_vectors" ~default:default_random_vectors
                  (fun random_vectors ->
                    with_int "max_backtracks" ~default:default_max_backtracks
                      (fun max_backtracks ->
                        with_int "budget" ~default:0 (fun budget_raw ->
                            let budget =
                              if budget_raw = 0 then None else Some budget_raw
                            in
                            let strategy =
                              match Json.member "strategy" j with
                              | None ->
                                Some Iddq_atpg.Atpg.default_config.strategy
                              | Some v ->
                                Option.bind (Json.to_str v)
                                  Iddq_atpg.Atpg.strategy_of_string
                            in
                            match strategy with
                            | None ->
                              fail Bad_request
                                "\"strategy\" must be \"greedy\", \
                                 \"essential\" or \"refined\""
                            | Some strategy ->
                              if random_vectors < 0 then
                                fail Bad_request
                                  "\"random_vectors\" must be non-negative"
                              else if max_backtracks < 1 then
                                fail Bad_request
                                  "\"max_backtracks\" must be positive"
                              else if budget_raw < 0 then
                                fail Bad_request
                                  "\"budget\" must be positive (or 0 for \
                                   unlimited)"
                              else
                                Ok
                                  ( id,
                                    Testset
                                      {
                                        handle;
                                        seed;
                                        random_vectors;
                                        max_backtracks;
                                        budget;
                                        strategy;
                                      } ))))))
      | "campaign_submit" ->
        required_str "spec" (fun spec ->
            with_int "domains" ~default:default_domains (fun domains ->
                if domains < 1 then
                  fail Bad_request "\"domains\" must be positive"
                else Ok (id, Campaign_submit { spec; domains })))
      | "campaign_status" ->
        required_str "campaign" (fun campaign ->
            Ok (id, Campaign_status { campaign }))
      | "metrics" -> Ok (id, Metrics)
      | "shutdown" -> Ok (id, Shutdown)
      | op -> fail Unknown_op (Printf.sprintf "unknown op %S" op)
    end
  end

let request_to_json ?id r =
  let id_field = match id with None -> [] | Some n -> [ ("id", Json.Int n) ] in
  let fields =
    match r with
    | Load_circuit { name; bench } ->
      ("op", Json.String "load_circuit")
      :: (match name with Some n -> [ ("name", Json.String n) ] | None -> [])
      @ (match bench with Some b -> [ ("bench", Json.String b) ] | None -> [])
    | Characterize { handle } ->
      [ ("op", Json.String "characterize"); ("handle", Json.String handle) ]
    | Partition { handle; method_; seed; module_size; require_feasible } ->
      [
        ("op", Json.String "partition");
        ("handle", Json.String handle);
        ("method", Json.String (Pipeline.method_to_string method_));
        ("seed", Json.Int seed);
      ]
      @ (match module_size with
        | Some s -> [ ("module_size", Json.Int s) ]
        | None -> [])
      @ [ ("require_feasible", Json.Bool require_feasible) ]
    | Fault_sim { handle; method_; seed; vectors; defects; defect_current } ->
      [
        ("op", Json.String "fault_sim");
        ("handle", Json.String handle);
        ("method", Json.String (Pipeline.method_to_string method_));
        ("seed", Json.Int seed);
        ("vectors", Json.Int vectors);
        ("defects", Json.Int defects);
        ("defect_current", Json.Float defect_current);
      ]
    | Diagnose
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
      [
        ("op", Json.String "diagnose");
        ("handle", Json.String handle);
        ("method", Json.String (Pipeline.method_to_string method_));
        ("seed", Json.Int seed);
        ("vectors", Json.Int vectors);
        ("defects", Json.Int defects);
        ("defect_current", Json.Float defect_current);
        ("epsilon", Json.Float epsilon);
        ("trials", Json.Int trials);
        ("top_k", Json.Int top_k);
      ]
    | Testset { handle; seed; random_vectors; max_backtracks; budget; strategy }
      ->
      [
        ("op", Json.String "testset");
        ("handle", Json.String handle);
        ("seed", Json.Int seed);
        ("random_vectors", Json.Int random_vectors);
        ("max_backtracks", Json.Int max_backtracks);
      ]
      @ (match budget with Some b -> [ ("budget", Json.Int b) ] | None -> [])
      @ [
          ( "strategy",
            Json.String (Iddq_atpg.Atpg.strategy_to_string strategy) );
        ]
    | Campaign_submit { spec; domains } ->
      [
        ("op", Json.String "campaign_submit");
        ("spec", Json.String spec);
        ("domains", Json.Int domains);
      ]
    | Campaign_status { campaign } ->
      [
        ("op", Json.String "campaign_status");
        ("campaign", Json.String campaign);
      ]
    | Metrics -> [ ("op", Json.String "metrics") ]
    | Shutdown -> [ ("op", Json.String "shutdown") ]
  in
  Json.Obj (id_field @ fields)

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

let id_field = function None -> [] | Some n -> [ ("id", Json.Int n) ]

let ok_response ~id payload = Json.Obj (id_field id @ [ ("ok", payload) ])

let error_response ~id { code; message } =
  Json.Obj
    (id_field id
    @ [
        ( "error",
          Json.Obj
            [
              ("code", Json.String (code_to_string code));
              ("message", Json.String message);
            ] );
      ])

let response_id = member_id

let response_payload j =
  match Json.member "ok" j with
  | Some payload -> Ok payload
  | None -> begin
    match Json.member "error" j with
    | Some e ->
      let code =
        match
          Option.bind (Option.bind (Json.member "code" e) Json.to_str)
            code_of_string
        with
        | Some c -> c
        | None -> Internal
      in
      let message =
        match Option.bind (Json.member "message" e) Json.to_str with
        | Some m -> m
        | None -> "unspecified error"
      in
      Error { code; message }
    | None -> Error (error Internal "response carries neither ok nor error")
  end
