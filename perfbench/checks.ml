(* Output checks, run on every run.  Each returns [Error] with a
   message on a mismatch; the benchmark then exits non-zero without a
   result line.  The self-test feeds each a deliberately wrong answer. *)

module Partition = Iddq_core.Partition
module Cost = Iddq_core.Cost
module Stuck_at = Iddq_defects.Stuck_at

(* A synthesized partition is consistent and its reported penalized
   cost is exactly what a fresh full evaluation gives. *)
let partition ~reported_cost p =
  match Partition.check_consistent p with
  | Error e -> Error ("partition is inconsistent: " ^ e)
  | Ok () ->
    let fresh = (Cost.evaluate p).Cost.penalized in
    if Common.same_float fresh reported_cost then Ok ()
    else
      Error
        (Printf.sprintf "reported cost %.17g but a fresh evaluation gives %.17g"
           reported_cost fresh)

(* A job's figure is bit-identical to the reference job's. *)
let same_float ~what ~reference x =
  if Common.same_float reference x then Ok ()
  else
    Error
      (Printf.sprintf "%s differs between jobs on one input: %.17g, then %.17g"
         what reference x)

(* A minimized test set keeps the reported coverage, and so does the
   full generated set, both recomputed one fault and one vector at a
   time by the scalar [Stuck_at.detects], not by the packed engine the
   job runs. *)
let coverage c ~faults ~vectors ~all_vectors ~reported =
  let total = List.length faults in
  let scalar vs =
    let detected =
      List.length
        (List.filter (fun f -> Array.exists (Stuck_at.detects c f) vs) faults)
    in
    float_of_int detected /. float_of_int total
  in
  let minimized = scalar vectors and full = scalar all_vectors in
  if not (Common.same_float minimized reported) then
    Error
      (Printf.sprintf "minimized set covers %.17g, reported %.17g" minimized
         reported)
  else if not (Common.same_float full reported) then
    Error
      (Printf.sprintf "full set covers %.17g, reported %.17g" full reported)
  else Ok ()

(* Every request id in [0, sent) is answered exactly once, and every
   error code is one the workload expects. *)
let responses ~sent ~answered_ids ~codes ~allowed =
  let seen = Array.make sent 0 in
  let bad_id = ref None in
  List.iter
    (fun id ->
      if id < 0 || id >= sent then bad_id := Some id
      else seen.(id) <- seen.(id) + 1)
    answered_ids;
  match !bad_id with
  | Some id -> Error (Printf.sprintf "response to unknown request id %d" id)
  | None -> (
    let missing = ref None and twice = ref None in
    Array.iteri
      (fun id n ->
        if n = 0 && !missing = None then missing := Some id
        else if n > 1 && !twice = None then twice := Some id)
      seen;
    match !missing, !twice with
    | Some id, _ -> Error (Printf.sprintf "request id %d was never answered" id)
    | None, Some id -> Error (Printf.sprintf "request id %d was answered twice" id)
    | None, None -> (
      match List.find_opt (fun c -> not (List.mem c allowed)) codes with
      | Some c -> Error ("unexpected error code " ^ c)
      | None -> Ok ()))

(* A reply the server sent equals the in-process service's reply to
   the same request. *)
let same_reply ~id ~server ~in_process =
  if String.equal server in_process then Ok ()
  else
    Error
      (Printf.sprintf "request %d: the server replied %s, an in-process service %s"
         id server in_process)

let require = function Ok () -> () | Error msg -> Common.fail "%s" msg
