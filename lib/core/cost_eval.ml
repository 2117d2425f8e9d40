module Charac = Iddq_analysis.Charac
module Timing = Iddq_analysis.Timing
module Technology = Iddq_celllib.Technology
module Sensor = Iddq_bic.Sensor
module Metrics = Iddq_util.Metrics

type t = {
  p : Partition.t;
  weights : Cost.weights;
  metrics : Metrics.t;
  nominal_delay : float;
  gate_delay : float array;  (* degraded delay per gate, valid unless dirty *)
  sensor : Sensor.t option array;  (* per module id; None = dead *)
  dirty : bool array;  (* per module id *)
  mutable all_dirty : bool;
  mutable cached : Cost.breakdown option;
}

let create ?(weights = Cost.paper_weights) ?(metrics = Metrics.global) p =
  let ch = Partition.charac p in
  let n = Charac.num_gates ch in
  (* Dead module ids are never reused and no new ids appear, so the
     id space is bounded by the largest id currently holding a gate. *)
  let k = 1 + List.fold_left Stdlib.max 0 (Partition.module_ids p) in
  {
    p;
    weights;
    metrics;
    nominal_delay = Timing.nominal_delay ch;
    gate_delay = Array.make n 0.0;
    sensor = Array.make k None;
    dirty = Array.make k false;
    all_dirty = true;
    cached = None;
  }

let partition t = t.p
let weights t = t.weights

let copy t =
  {
    p = Partition.copy t.p;
    weights = t.weights;
    metrics = t.metrics;
    nominal_delay = t.nominal_delay;
    gate_delay = Array.copy t.gate_delay;
    sensor = Array.copy t.sensor;
    dirty = Array.copy t.dirty;
    all_dirty = t.all_dirty;
    cached = t.cached;
  }

let invalidate t =
  t.all_dirty <- true;
  t.cached <- None

let move t ~gate ~target =
  let src = Partition.module_of_gate t.p gate in
  if src <> target then begin
    Partition.move_gate t.p gate target;
    t.dirty.(src) <- true;
    t.dirty.(target) <- true;
    t.cached <- None;
    Metrics.incr t.metrics Metrics.moves
  end

(* Identical sizing call to [Partition.sensors] so cached and freshly
   computed sensors agree exactly. *)
let size_sensor p m =
  Sensor.size
    ~technology:(Charac.technology (Partition.charac p))
    ~peak_current:(Partition.max_transient_current p m)
    ~module_rail_capacitance:(Partition.rail_capacitance p m)

let refresh t =
  let t0 = Sys.time () in
  let p = t.p in
  let ch = Partition.charac p in
  let vdd = (Charac.technology ch).Technology.vdd in
  let n = Array.length t.gate_delay in
  let k = Array.length t.dirty in
  let was_full = t.all_dirty in
  if was_full then Array.fill t.dirty 0 k true;
  for m = 0 to k - 1 do
    if t.dirty.(m) then
      t.sensor.(m) <-
        (if Partition.size p m = 0 then None else Some (size_sensor p m))
  done;
  let recomputed = ref 0 in
  for g = 0 to n - 1 do
    let m = Partition.module_of_gate p g in
    if t.dirty.(m) then begin
      incr recomputed;
      let s =
        match t.sensor.(m) with
        | Some s -> s
        | None -> assert false (* a module holding gate [g] is live *)
      in
      (* The same arithmetic [Timing.bic_delay] performs per gate. *)
      let delta =
        Timing.degradation_factor ~vdd ~rs:s.Sensor.rs ~cs:s.Sensor.cs
          ~rg:(Charac.drive_resistance ch g)
          ~cg:(Charac.output_capacitance ch g)
          ~transient_current:(Partition.transient_at p m (Charac.gate_depth ch g))
      in
      t.gate_delay.(g) <- Charac.delay ch g *. delta
    end
  done;
  let bic_delay = Timing.longest_path ch ~gate_delay:(Array.get t.gate_delay) in
  let sensors =
    List.map
      (fun m ->
        match t.sensor.(m) with
        | Some s -> (m, s)
        | None -> assert false)
      (Partition.module_ids p)
  in
  let b =
    Cost.of_components ~weights:t.weights ~sensors ~bic_delay
      ~nominal_delay:t.nominal_delay p
  in
  Array.fill t.dirty 0 k false;
  t.all_dirty <- false;
  t.cached <- Some b;
  let seconds = Sys.time () -. t0 in
  if was_full then Metrics.record_full t.metrics ~gates:n ~seconds
  else Metrics.record_delta t.metrics ~gates:!recomputed ~seconds;
  b

let breakdown t =
  match t.cached with
  | Some b ->
    Metrics.incr t.metrics Metrics.eval_cache_hits;
    b
  | None -> refresh t

let penalized t = (breakdown t).Cost.penalized

let self_check t =
  let got = breakdown t in
  let want = Cost.evaluate ~weights:t.weights t.p in
  let check name a b rest =
    if a = b then rest ()
    else
      Error
        (Printf.sprintf "Cost_eval.self_check: %s differs: delta=%.17g full=%.17g"
           name a b)
  in
  check "penalized" got.Cost.penalized want.Cost.penalized @@ fun () ->
  check "total" got.Cost.total want.Cost.total @@ fun () ->
  check "bic_delay" got.Cost.bic_delay want.Cost.bic_delay @@ fun () ->
  check "sensor_area" got.Cost.sensor_area want.Cost.sensor_area @@ fun () ->
  Ok ()
