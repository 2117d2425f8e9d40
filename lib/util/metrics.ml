type _ kind = Sum : int kind | Seconds : float kind | Peak : int kind

type 'a counter = { name : string; kind : 'a kind; slot : int }
type any = Any : 'a counter -> any

(* The registry: every counter below claims the next slot of its cell
   array at module initialisation, so recording indexes an array and
   never looks a name up. *)
let n_ints = ref 0
let n_floats = ref 0
let declared = ref []

let declare (type a) name (kind : a kind) : a counter =
  let next r = let s = !r in r := s + 1; s in
  let slot =
    match kind with Seconds -> next n_floats | Sum | Peak -> next n_ints
  in
  let c = { name; kind; slot } in
  declared := Any c :: !declared;
  c

let full_evals = declare "full_evals" Sum
let delta_evals = declare "delta_evals" Sum
let eval_cache_hits = declare "eval_cache_hits" Sum
let moves = declare "moves" Sum
let gates_full = declare "gates_full" Sum
let gates_delta = declare "gates_delta" Sum
let seconds_full = declare "seconds_full" Seconds
let seconds_delta = declare "seconds_delta" Seconds
let sim_blocks = declare "sim_blocks" Sum
let sim_fault_blocks = declare "sim_fault_blocks" Sum
let sim_faults_dropped = declare "sim_faults_dropped" Sum
let sim_steals = declare "sim_steals" Sum
let requests = declare "requests" Sum
let requests_failed = declare "requests_failed" Sum
let seconds_requests = declare "seconds_requests" Seconds
let cache_hits = declare "cache_hits" Sum
let cache_misses = declare "cache_misses" Sum
let cache_evictions = declare "cache_evictions" Sum
let sheds = declare "sheds" Sum
let queue_peak = declare "queue_peak" Peak
let wbuf_peak = declare "wbuf_peak" Peak

let all = List.rev !declared
let name c = c.name
let kind c = c.kind

type t = { ints : int Atomic.t array; floats : float Atomic.t array }

let create () =
  {
    ints = Array.init !n_ints (fun _ -> Atomic.make 0);
    floats = Array.init !n_floats (fun _ -> Atomic.make 0.0);
  }

let global = create ()

(* lock-free add for the float accumulators *)
let rec add_float cell x =
  let cur = Atomic.get cell in
  if not (Atomic.compare_and_set cell cur (cur +. x)) then add_float cell x

(* lock-free max for the high-water marks *)
let rec max_int_atomic cell x =
  let cur = Atomic.get cell in
  if x > cur && not (Atomic.compare_and_set cell cur x) then
    max_int_atomic cell x

let record (type a) t (c : a counter) (v : a) =
  match c.kind with
  | Sum -> ignore (Atomic.fetch_and_add t.ints.(c.slot) v)
  | Peak -> max_int_atomic t.ints.(c.slot) v
  | Seconds -> add_float t.floats.(c.slot) v

let incr t c = record t c 1

let record_full t ~gates ~seconds =
  incr t full_evals;
  record t gates_full gates;
  record t seconds_full seconds

let record_delta t ~gates ~seconds =
  incr t delta_evals;
  record t gates_delta gates;
  record t seconds_delta seconds

let reset t =
  Array.iter (fun a -> Atomic.set a 0) t.ints;
  Array.iter (fun a -> Atomic.set a 0.0) t.floats

(* ------------------------------------------------------------------ *)
(* Snapshots: each operation below is written once over [all]          *)
(* ------------------------------------------------------------------ *)

type snapshot = { s_ints : int array; s_floats : float array }

let get (type a) s (c : a counter) : a =
  match c.kind with
  | Sum -> s.s_ints.(c.slot)
  | Peak -> s.s_ints.(c.slot)
  | Seconds -> s.s_floats.(c.slot)

let set (type a) s (c : a counter) (v : a) =
  match c.kind with
  | Sum -> s.s_ints.(c.slot) <- v
  | Peak -> s.s_ints.(c.slot) <- v
  | Seconds -> s.s_floats.(c.slot) <- v

let zero () =
  { s_ints = Array.make !n_ints 0; s_floats = Array.make !n_floats 0.0 }

type value = { f : 'a. 'a counter -> 'a }

let init v =
  let s = zero () in
  List.iter (fun (Any c) -> set s c (v.f c)) all;
  s

let snapshot t =
  init
    {
      f =
        (fun (type a) (c : a counter) : a ->
          match c.kind with
          | Sum -> Atomic.get t.ints.(c.slot)
          | Peak -> Atomic.get t.ints.(c.slot)
          | Seconds -> Atomic.get t.floats.(c.slot));
    }

let diff after before =
  init
    {
      f =
        (fun (type a) (c : a counter) : a ->
          match c.kind with
          | Sum -> get after c - get before c
          | Seconds -> get after c -. get before c
          (* a high-water mark is not an increment: the later mark *)
          | Peak -> get after c);
    }

let strip_timing s =
  init
    {
      f =
        (fun (type a) (c : a counter) : a ->
          match c.kind with Seconds -> 0.0 | Sum | Peak -> get s c);
    }

let value_json s (Any c) =
  match c.kind with
  | Seconds -> Json.Float (get s c)
  | Sum -> Json.Int (get s c)
  | Peak -> Json.Int (get s c)

let to_json s =
  Json.Obj (List.map (fun (Any c as a) -> (c.name, value_json s a)) all)

(* The keys campaign stores used before the JSONL names became the
   canonical ones. *)
let legacy_keys =
  [
    ("full_evals", "full");
    ("delta_evals", "delta");
    ("eval_cache_hits", "hits");
    ("seconds_full", "sec_full");
    ("seconds_delta", "sec_delta");
    ("sim_faults_dropped", "sim_dropped");
    ("seconds_requests", "sec_requests");
    ("cache_hits", "srv_hits");
    ("cache_misses", "srv_misses");
    ("cache_evictions", "srv_evictions");
    ("sheds", "srv_sheds");
    ("queue_peak", "srv_queue_peak");
    ("wbuf_peak", "srv_wbuf_peak");
  ]

let of_json j =
  match Json.to_obj j with
  | None -> Error "counters: not a JSON object"
  | Some kvs ->
    let lookup name =
      match List.assoc_opt name kvs with
      | Some v -> Some (name, v)
      | None ->
        Option.bind (List.assoc_opt name legacy_keys) (fun key ->
            Option.map (fun v -> (key, v)) (List.assoc_opt key kvs))
    in
    let decode (type a) (c : a counter) v : a option =
      match c.kind with
      | Seconds -> Json.to_float v
      | Sum -> Json.to_int v
      | Peak -> Json.to_int v
    in
    let s = zero () in
    (* an absent counter is zero; a present one must have its kind *)
    let rec go = function
      | [] -> Ok s
      | Any c :: rest -> (
        match lookup c.name with
        | None -> go rest
        | Some (key, v) -> (
          match decode c v with
          | Some x -> set s c x; go rest
          | None -> Error (Printf.sprintf "counters: bad value for %S" key)))
    in
    go all

(* ------------------------------------------------------------------ *)
(* Derived measures                                                    *)
(* ------------------------------------------------------------------ *)

let evaluations s =
  get s full_evals + get s delta_evals + get s eval_cache_hits

let equivalent_evals s =
  let full = get s full_evals in
  let naive = float_of_int (full + get s delta_evals) in
  if full = 0 then naive
  else begin
    let per_full = float_of_int (get s gates_full) /. float_of_int full in
    if per_full <= 0.0 then naive
    else float_of_int full +. (float_of_int (get s gates_delta) /. per_full)
  end

let speedup s =
  let eq = equivalent_evals s in
  if eq <= 0.0 then 1.0 else float_of_int (evaluations s) /. eq

let rows s =
  [
    ("evaluations", string_of_int (evaluations s));
    ("evaluate_equivalents", Printf.sprintf "%.1f" (equivalent_evals s));
    ("speedup", Printf.sprintf "%.1fx" (speedup s));
  ]
  @ List.map
      (fun (Any c as a) ->
        ( c.name,
          match value_json s a with
          | Json.Float x -> Printf.sprintf "%.3f" x
          | v -> Json.to_string v ))
      all

let pp fmt s =
  Format.pp_print_list ~pp_sep:Format.pp_print_space
    (fun fmt (k, v) -> Format.fprintf fmt "%s=%s" k v)
    fmt (rows s)
