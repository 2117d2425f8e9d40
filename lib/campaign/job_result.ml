module Json = Iddq_util.Json
module Metrics = Iddq_util.Metrics
module Pipeline = Iddq.Pipeline
module Partition = Iddq_core.Partition
module Cost = Iddq_core.Cost

type status = Done | Failed of string | Timeout of float

type t = {
  job_id : string;
  circuit : string;
  method_ : Pipeline.method_;
  seed : int;
  derived_seed : int;
  module_size : int option;
  status : status;
  elapsed : float;
  num_modules : int;
  generations : int;
  module_sizes : int list;
  cost : float;
  feasible : bool;
  sensor_area : float;
  nominal_delay : float;
  bic_delay : float;
  test_time_per_vector : float;
  min_discriminability : float;
  metrics : Metrics.snapshot;
}

let is_ok r = r.status = Done

let empty ~(job : Spec.job) ~derived_seed ~elapsed ~metrics status =
  {
    job_id = job.Spec.id;
    circuit = job.Spec.circuit;
    method_ = job.Spec.method_;
    seed = job.Spec.seed;
    derived_seed;
    module_size = job.Spec.module_size;
    status;
    elapsed;
    num_modules = 0;
    generations = 0;
    module_sizes = [];
    cost = 0.0;
    feasible = false;
    sensor_area = 0.0;
    nominal_delay = 0.0;
    bic_delay = 0.0;
    test_time_per_vector = 0.0;
    min_discriminability = 0.0;
    metrics;
  }

let of_run ~job ~derived_seed ~elapsed ~metrics (r : Pipeline.t) =
  let p = r.Pipeline.partition in
  let b = r.Pipeline.breakdown in
  {
    (empty ~job ~derived_seed ~elapsed ~metrics Done) with
    num_modules = Partition.num_modules p;
    generations = r.Pipeline.generations;
    module_sizes =
      List.map (fun m -> Partition.size p m) (Partition.module_ids p);
    cost = b.Cost.penalized;
    feasible = b.Cost.feasible;
    sensor_area = b.Cost.sensor_area;
    nominal_delay = b.Cost.nominal_delay;
    bic_delay = b.Cost.bic_delay;
    test_time_per_vector = b.Cost.test_time_per_vector;
    min_discriminability = b.Cost.min_discriminability;
  }

let failure ~job ~derived_seed ~elapsed ~metrics msg =
  empty ~job ~derived_seed ~elapsed ~metrics (Failed msg)

let timed_out ~job ~derived_seed ~elapsed ~metrics ~limit =
  empty ~job ~derived_seed ~elapsed ~metrics (Timeout limit)

let delay_overhead_percent r =
  if r.nominal_delay > 0.0 then
    100.0 *. (r.bic_delay -. r.nominal_delay) /. r.nominal_delay
  else 0.0

let test_time_overhead_percent r =
  if r.nominal_delay > 0.0 then
    100.0 *. (r.test_time_per_vector -. r.nominal_delay) /. r.nominal_delay
  else 0.0

let strip_timing r =
  { r with elapsed = 0.0; metrics = Metrics.strip_timing r.metrics }

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let status_fields = function
  | Done -> [ ("status", Json.String "ok") ]
  | Failed msg ->
    [ ("status", Json.String "failed"); ("error", Json.String msg) ]
  | Timeout limit ->
    [ ("status", Json.String "timeout"); ("timeout_s", Json.Float limit) ]

let to_json r =
  Json.Obj
    ([
       ("job", Json.String r.job_id);
       ("circuit", Json.String r.circuit);
       ("method", Json.String (Pipeline.method_to_string r.method_));
       ("seed", Json.Int r.seed);
       ("derived_seed", Json.Int r.derived_seed);
       ( "module_size",
         match r.module_size with None -> Json.Null | Some s -> Json.Int s );
     ]
    @ status_fields r.status
    @ [
        ("elapsed", Json.Float r.elapsed);
        ("modules", Json.Int r.num_modules);
        ("generations", Json.Int r.generations);
        ("module_sizes", Json.List (List.map (fun s -> Json.Int s) r.module_sizes));
        ("cost", Json.Float r.cost);
        ("feasible", Json.Bool r.feasible);
        ("area", Json.Float r.sensor_area);
        ("nominal_delay", Json.Float r.nominal_delay);
        ("bic_delay", Json.Float r.bic_delay);
        ("test_time", Json.Float r.test_time_per_vector);
        ("min_disc", Json.Float r.min_discriminability);
        ("metrics", Metrics.to_json r.metrics);
      ])

let of_json j =
  let ( let* ) = Stdlib.Result.bind in
  let field name decode =
    match Option.bind (Json.member name j) decode with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "result record: bad or missing %S" name)
  in
  let* job_id = field "job" Json.to_str in
  let* circuit = field "circuit" Json.to_str in
  let* method_name = field "method" Json.to_str in
  let* method_ =
    match Pipeline.method_of_string method_name with
    | Some m -> Ok m
    | None -> Error (Printf.sprintf "result record: unknown method %S" method_name)
  in
  let* seed = field "seed" Json.to_int in
  let* derived_seed = field "derived_seed" Json.to_int in
  let* module_size =
    match Json.member "module_size" j with
    | Some Json.Null | None -> Ok None
    | Some v -> begin
      match Json.to_int v with
      | Some i -> Ok (Some i)
      | None -> Error "result record: bad module_size"
    end
  in
  let* status_name = field "status" Json.to_str in
  let* status =
    match status_name with
    | "ok" -> Ok Done
    | "failed" ->
      let* msg = field "error" Json.to_str in
      Ok (Failed msg)
    | "timeout" ->
      let* limit = field "timeout_s" Json.to_float in
      Ok (Timeout limit)
    | s -> Error (Printf.sprintf "result record: unknown status %S" s)
  in
  let* elapsed = field "elapsed" Json.to_float in
  let* num_modules = field "modules" Json.to_int in
  let* generations = field "generations" Json.to_int in
  let* sizes_json = field "module_sizes" Json.to_list in
  let* module_sizes =
    List.fold_right
      (fun v acc ->
        let* tl = acc in
        match Json.to_int v with
        | Some i -> Ok (i :: tl)
        | None -> Error "result record: bad module_sizes entry")
      sizes_json (Ok [])
  in
  let* cost = field "cost" Json.to_float in
  let* feasible = field "feasible" Json.to_bool in
  let* sensor_area = field "area" Json.to_float in
  let* nominal_delay = field "nominal_delay" Json.to_float in
  let* bic_delay = field "bic_delay" Json.to_float in
  let* test_time_per_vector = field "test_time" Json.to_float in
  let* min_discriminability = field "min_disc" Json.to_float in
  let* mj = field "metrics" Option.some in
  let* metrics =
    Result.map_error (( ^ ) "result record: ") (Metrics.of_json mj)
  in
  Ok
    {
      job_id;
      circuit;
      method_;
      seed;
      derived_seed;
      module_size;
      status;
      elapsed;
      num_modules;
      generations;
      module_sizes;
      cost;
      feasible;
      sensor_area;
      nominal_delay;
      bic_delay;
      test_time_per_vector;
      min_discriminability;
      metrics;
    }

let to_line r = Json.to_string (to_json r)

let of_line line =
  match Json.parse line with
  | Error e -> Error e
  | Ok j -> of_json j
