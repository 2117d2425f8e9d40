(* Entry point of the repository benchmark (see README.md).

     bench.exe --workload W --seed N --seconds S --trace 0|1
     bench.exe --self-test
     bench.exe --serve-child SOCKET   (the server process of serve_mix)

   A run prints workload-specific figures for people, then, as its last
   line, one JSON object: the end-to-end metrics with --trace 0, the
   per-layer metrics with --trace 1.  A failed output check exits 1
   without a result line. *)

module Json = Iddq_util.Json

(* The metric catalogue (names and units) is BENCHMARK.json's, read
   from the root of the checkout the benchmark runs in. *)
let catalogue key =
  let path = "BENCHMARK.json" in
  let text =
    match In_channel.with_open_bin path In_channel.input_all with
    | s -> s
    | exception Sys_error e -> Common.fail "cannot read %s: %s" path e
  in
  let entries =
    match Result.map (Json.member key) (Json.parse text) with
    | Ok (Some (Json.List l)) -> l
    | _ -> Common.fail "%s has no %s list" path key
  in
  List.map
    (fun e ->
      match
        ( Option.bind (Json.member "name" e) Json.to_str,
          Option.bind (Json.member "unit" e) Json.to_str )
      with
      | Some name, Some unit -> (name, unit)
      | _ -> Common.fail "%s: a %s entry lacks a name or unit" path key)
    entries

let workloads =
  [ ("synth_c7552", Synth.run); ("atpg_c432", Atpg_job.run); ("serve_mix", Serve.run) ]

let number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else Common.fail "metric value %f is not finite" v

(* A per-layer metric the catalogue lists but the workload does not
   measure (a layer it does not enter) reads 0; every workload measures
   every end-to-end metric, and one it measures that the catalogue
   lacks is a bug. *)
let value (o : Common.outcome) name =
  Option.value (List.assoc_opt name o.Common.metrics) ~default:0.0

let result_line (o : Common.outcome) ~catalogue ~trace =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name catalogue) then
        Common.fail "metric %s is not in BENCHMARK.json" name)
    o.Common.metrics;
  if not trace then
    List.iter
      (fun (name, _) ->
        if not (List.mem_assoc name o.Common.metrics) then
          Common.fail "the workload does not measure end-to-end metric %s" name)
      catalogue;
  let metric (name, unit) =
    let v = value o name in
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit
  in
  Printf.sprintf
    "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.Common.attempted o.Common.failed
    (String.concat ", " (List.map metric catalogue))

let print_figures (o : Common.outcome) ~catalogue =
  List.iter
    (fun (name, v, unit) -> Printf.printf "# %-36s %16.6g %s\n" name v unit)
    o.Common.report;
  List.iter
    (fun (name, unit) -> Printf.printf "# %-36s %16.6g %s\n" name (value o name) unit)
    catalogue

let run_workload name (o : Common.opts) =
  match List.assoc_opt name workloads with
  | None ->
    Common.fail "unknown workload %s (known: %s)" name
      (String.concat ", " (List.map fst workloads))
  | Some run ->
    let outcome = run o in
    let catalogue = catalogue (if o.Common.trace then "per_layer" else "end_to_end") in
    print_figures outcome ~catalogue;
    print_endline (result_line outcome ~catalogue ~trace:o.Common.trace)

let usage () =
  prerr_endline
    "usage: bench.exe --workload W --seed N --seconds S --trace 0|1\n\
    \       bench.exe --self-test";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "--serve-child"; socket ] -> Serve.child ~socket
  | [ "--self-test" ] -> (
    try Self_test.run ~workloads:(List.map fst workloads) ~run_workload with
    | Common.Check_failed msg ->
      prerr_endline ("self-test: " ^ msg);
      exit 1)
  | _ -> (
    let rec parse acc = function
      | [] -> acc
      | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--"
        ->
        parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
      | _ -> usage ()
    in
    let kv = parse [] args in
    let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
    let int_of k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
    let opts =
      {
        Common.seed = int_of "seed";
        seconds = float_of_int (int_of "seconds");
        trace = int_of "trace" <> 0;
      }
    in
    try run_workload (get "workload") opts with
    | Common.Check_failed msg ->
      prerr_endline ("perfbench: check failed: " ^ msg);
      exit 1)
