module Circuit = Iddq_netlist.Circuit
module Gate = Iddq_netlist.Gate

type fault =
  | Stem of int * bool
  | Pin of { gate : int; pin : int; value : bool }

let pp_fault c fmt = function
  | Stem (id, v) ->
    Format.fprintf fmt "%s/sa%d" (Circuit.node_name c id) (if v then 1 else 0)
  | Pin { gate; pin; value } ->
    Format.fprintf fmt "%s.in%d/sa%d" (Circuit.node_name c gate) pin
      (if value then 1 else 0)

let full_fault_list c =
  let stems = ref [] in
  for id = Circuit.num_nodes c - 1 downto 0 do
    stems := Stem (id, false) :: Stem (id, true) :: !stems
  done;
  let pins = ref [] in
  Circuit.iter_gates c (fun g _ fanins ->
      let id = Circuit.node_of_gate c g in
      for pin = Array.length fanins - 1 downto 0 do
        pins :=
          Pin { gate = id; pin; value = false }
          :: Pin { gate = id; pin; value = true }
          :: !pins
      done);
  !stems @ List.rev !pins

(* A pin fault is equivalent to the gate's output stem fault when the
   pin value is controlling: AND/NAND input sa0, OR/NOR input sa1, and
   both values for NOT/BUFF.  Those classes keep the stem
   representative only. *)
let pin_equivalent_to_output kind value =
  match kind, value with
  | (Gate.And | Gate.Nand), false -> true
  | (Gate.Or | Gate.Nor), true -> true
  | (Gate.Not | Gate.Buff), _ -> true
  | (Gate.And | Gate.Nand), true -> false
  | (Gate.Or | Gate.Nor), false -> false
  | (Gate.Xor | Gate.Xnor), _ -> false

let collapsed_fault_list c =
  List.filter
    (function
      | Stem _ -> true
      | Pin { gate; value; _ } ->
        not (pin_equivalent_to_output (Circuit.gate_kind c gate) value))
    (full_fault_list c)

let faulty_eval c fault inputs =
  if Array.length inputs <> Circuit.num_inputs c then
    invalid_arg "Stuck_at.faulty_eval: input vector length mismatch";
  let values = Array.make (Circuit.num_nodes c) false in
  Array.blit inputs 0 values 0 (Array.length inputs);
  let stem_override id =
    match fault with
    | Stem (f, v) when f = id -> Some v
    | Stem _ | Pin _ -> None
  in
  (* stuck primary inputs *)
  for id = 0 to Circuit.num_inputs c - 1 do
    match stem_override id with Some v -> values.(id) <- v | None -> ()
  done;
  Circuit.iter_gates c (fun g kind fanins ->
      let id = Circuit.node_of_gate c g in
      let read pin src =
        match fault with
        | Pin { gate; pin = p; value } when gate = id && p = pin -> value
        | Pin _ | Stem _ -> values.(src)
      in
      let value = Gate.eval kind (Array.mapi read fanins) in
      values.(id) <-
        (match stem_override id with Some v -> v | None -> value));
  values

let detects c fault inputs =
  let good = Iddq_patterns.Logic_sim.eval c inputs in
  let bad = faulty_eval c fault inputs in
  Array.exists (fun id -> good.(id) <> bad.(id)) (Circuit.outputs c)

type sim_result = {
  total : int;
  detected : int;
  coverage : float;
  first_vector : int array;
}

(* Bit-parallel (64 vectors per pass) serial fault simulation with
   fault dropping: the vector set is packed once, the good machine is
   shared across all faults ({!Fault_sim.good_values}), and 64-fault
   chunks are claimed round-robin off a {!Iddq_util.Domain_pool}. *)
let fault_simulate ?(domains = 1) ?metrics c ~vectors ~faults =
  let module P = Iddq_patterns.Parallel_sim in
  let fault_arr = Array.of_list faults in
  let nf = Array.length fault_arr in
  let first_vector = Array.make nf (-1) in
  let packed = P.pack_all vectors in
  let nb = P.num_blocks packed in
  Iddq_util.Domain_pool.with_pool ~domains @@ fun pool ->
  let goods = Fault_sim.good_values ?metrics pool c packed in
  Fault_sim.fault_chunks ?metrics pool nf (fun lo hi ->
      let fault_blocks = ref 0 and dropped = ref 0 in
      for f = lo to hi - 1 do
        let fault = fault_arr.(f) in
        (* dropping: stop at the first detecting block *)
        let rec scan b =
          if b < nb then begin
            incr fault_blocks;
            let words = P.block packed b in
            let bad =
              match fault with
              | Stem (node, value) -> P.eval_with_stuck_node c ~node ~value words
              | Pin { gate; pin; value } ->
                P.eval_with_stuck_pin c ~gate ~pin ~value words
            in
            let diff =
              Int64.logand (P.output_diff c goods.(b) bad) (P.block_mask packed b)
            in
            if diff <> 0L then begin
              first_vector.(f) <- (b * 64) + Iddq_util.Bitvec.ctz64 diff;
              incr dropped
            end
            else scan (b + 1)
          end
        in
        scan 0
      done;
      (!fault_blocks, !dropped));
  let detected =
    Array.fold_left (fun acc v -> if v >= 0 then acc + 1 else acc) 0 first_vector
  in
  {
    total = nf;
    detected;
    coverage = (if nf = 0 then 1.0 else float_of_int detected /. float_of_int nf);
    first_vector;
  }

let undetected ?domains ?metrics c ~vectors ~faults =
  let r = fault_simulate ?domains ?metrics c ~vectors ~faults in
  List.filteri (fun f _ -> r.first_vector.(f) < 0) faults

(* The full matrix (no dropping — every detecting vector of every
   fault), the stuck-at counterpart of {!Fault_sim.detection_matrix}:
   what the test-set minimizers ({!Coverage}) run on. *)
let detection_matrix ?(domains = 1) ?metrics c ~vectors ~faults =
  let module P = Iddq_patterns.Parallel_sim in
  let fault_arr = Array.of_list faults in
  let nf = Array.length fault_arr in
  let nv = Array.length vectors in
  let rows = Array.init nf (fun _ -> Iddq_util.Bitvec.create nv) in
  let packed = P.pack_all vectors in
  let nb = P.num_blocks packed in
  Iddq_util.Domain_pool.with_pool ~domains @@ fun pool ->
  let goods = Fault_sim.good_values ?metrics pool c packed in
  Fault_sim.fault_chunks ?metrics pool nf (fun lo hi ->
      let fault_blocks = ref 0 in
      for f = lo to hi - 1 do
        let fault = fault_arr.(f) in
        for b = 0 to nb - 1 do
          incr fault_blocks;
          let words = P.block packed b in
          let bad =
            match fault with
            | Stem (node, value) -> P.eval_with_stuck_node c ~node ~value words
            | Pin { gate; pin; value } ->
              P.eval_with_stuck_pin c ~gate ~pin ~value words
          in
          let diff =
            Int64.logand (P.output_diff c goods.(b) bad) (P.block_mask packed b)
          in
          if diff <> 0L then Iddq_util.Bitvec.set_word rows.(f) b diff
        done
      done;
      (!fault_blocks, 0));
  { Fault_sim.n_vectors = nv; rows }
