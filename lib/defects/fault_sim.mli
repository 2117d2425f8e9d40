(** 64-way bit-parallel IDDQ fault simulation (PPSFP).

    The scalar pipeline ({!Iddq_sim}, the original {!Coverage}) walks
    every fault over every vector with one {!Iddq_patterns.Logic_sim}
    evaluation per vector — O(faults x vectors x gates) on the
    campaign grid's hottest path.  This engine applies the classic
    parallel-pattern single-fault-propagation recipe to the IDDQ
    defect models:

    - the vector set is packed {e once} into 64-wide blocks
      ({!Iddq_patterns.Parallel_sim.pack_all});
    - the {e good machine} is evaluated once per block and shared
      across all faults — IDDQ activation needs no faulty
      re-simulation, every defect model reduces to pure [Int64] word
      operations over good-machine node words (a bridge activates
      where the two nets differ: one [XOR]; a gate-oxide short where
      the node carries the short's polarity: the node word or its
      complement; a floating gate everywhere: the block mask);
    - {e fault dropping}: a detected fault never touches another
      block;
    - fault chunks are claimed round-robin off one atomic index by a
      reusable {!Iddq_util.Domain_pool} (work stealing: dropping makes
      per-fault cost uneven, and a domain whose static range emptied
      early used to idle — the rebalanced chunks are counted as
      [steals] in {!Metrics}), the good machine being shared
      read-only.

    The scalar path survives as {!detection_matrix_scalar}, the
    reference oracle for the differential tests. *)

module Bitvec = Iddq_util.Bitvec
module Metrics = Iddq_util.Metrics

type matrix = {
  n_vectors : int;
  rows : Bitvec.t array;
      (** One packed row per fault: bit [v] set iff vector [v] detects
          it (activation and current threshold both checked). *)
}

val equal : matrix -> matrix -> bool

val activation_word : Fault.t -> good:int64 array -> int64
(** Bit [k] set iff the defect draws current under vector [k] of the
    block, given the good-machine node words.  The caller masks with
    the block's active mask. *)

val measurable : Iddq_core.Partition.t -> Fault.injected -> bool
(** Does the defect current, on top of its module's fault-free
    leakage, reach the technology's IDDQ threshold at that module's
    sensor? *)

val good_values :
  ?metrics:Metrics.t ->
  Iddq_util.Domain_pool.t ->
  Iddq_netlist.Circuit.t ->
  Iddq_patterns.Parallel_sim.packed ->
  int64 array array
(** Good-machine node words for every block, one pool chunk per
    block, in the boxed pre-CSR representation.  Shared read-only by
    all fault chunks (also by {!Stuck_at.fault_simulate}). *)

val good_values_flat :
  ?domains:int ->
  ?metrics:Metrics.t ->
  ?pool:Iddq_util.Domain_pool.t ->
  ?stripe:int ->
  Iddq_netlist.Circuit.t ->
  Iddq_patterns.Parallel_sim.packed ->
  Iddq_patterns.Parallel_sim.ba
(** The flat-kernel good machine: one GC-opaque {e node-major} buffer
    holding node [id]'s word for block [b] at [id * num_blocks + b],
    filled by the striped levelized kernel
    ({!Iddq_patterns.Parallel_sim.eval_all_into} — [stripe] words per
    gate visit, levels split over [pool] when given, else over a
    transient [domains]-wide pool).  The layout makes every fault
    sweep a contiguous per-node row scan.  What {!detection_matrix}
    and {!first_detections} run on. *)

(** {1 Partition-thresholded entry points}

    These mirror the scalar {!Iddq_sim.run_partitioned} semantics:
    detection = activation and the module sensor crossing threshold. *)

val detection_matrix :
  ?domains:int ->
  ?metrics:Metrics.t ->
  Iddq_core.Partition.t ->
  vectors:bool array array ->
  faults:Fault.injected list ->
  matrix
(** The {e full} matrix (no dropping — every detecting vector of every
    fault), for coverage curves and compaction. *)

val first_detections :
  ?domains:int ->
  ?metrics:Metrics.t ->
  Iddq_core.Partition.t ->
  vectors:bool array array ->
  faults:Fault.injected list ->
  int array
(** Per fault, the index of its first detecting vector ([-1] when
    undetected) — with fault dropping, so a detected fault never
    touches another block. *)

(** {1 Custom-threshold entry points}

    Same engine under an arbitrary measurability predicate (e.g. the
    single-sensor guard-banded threshold of
    {!Iddq_sim.run_single_sensor}). *)

val detection_matrix_with :
  ?domains:int ->
  ?metrics:Metrics.t ->
  Iddq_netlist.Circuit.t ->
  measurable:(Fault.injected -> bool) ->
  vectors:bool array array ->
  faults:Fault.injected list ->
  matrix

val first_detections_with :
  ?domains:int ->
  ?metrics:Metrics.t ->
  Iddq_netlist.Circuit.t ->
  measurable:(Fault.injected -> bool) ->
  vectors:bool array array ->
  faults:Fault.injected list ->
  int array

(** {1 Reference oracles} *)

val detection_matrix_boxed :
  ?domains:int ->
  ?metrics:Metrics.t ->
  Iddq_core.Partition.t ->
  vectors:bool array array ->
  faults:Fault.injected list ->
  matrix
(** The pre-CSR packed engine, verbatim: boxed per-block node words,
    {!activation_word} per (fault, block).  Bit-identical to
    {!detection_matrix} by construction — kept as the differential
    oracle and the [bench kernels] baseline. *)

val detection_matrix_boxed_with :
  ?domains:int ->
  ?metrics:Metrics.t ->
  Iddq_netlist.Circuit.t ->
  measurable:(Fault.injected -> bool) ->
  vectors:bool array array ->
  faults:Fault.injected list ->
  matrix
(** {!detection_matrix_boxed} under an arbitrary measurability
    predicate (the circuit-level form the [kernels] bench times the
    flat engine against). *)

val detection_matrix_scalar :
  Iddq_core.Partition.t ->
  vectors:bool array array ->
  faults:Fault.injected list ->
  matrix
(** Vector-at-a-time {!Iddq_patterns.Logic_sim.eval} +
    {!Fault.activated} — bit-for-bit what the packed engine must
    reproduce.  Kept (and benchmarked against, see the [faultsim]
    experiment) as the differential-test oracle. *)

(** {1 Fault scheduling} *)

val fault_chunks :
  ?metrics:Metrics.t ->
  Iddq_util.Domain_pool.t ->
  int ->
  (int -> int -> int * int) ->
  unit
(** [fault_chunks pool n f] runs [f lo hi] over [0 .. n-1] in 64-fault
    chunks claimed round-robin off [pool]
    ({!Iddq_util.Domain_pool.run}).  Each [f lo hi] returns its
    per-fault block passes and dropped faults, recorded in [metrics]
    with the rebalanced chunks ([sim_steals]).  [f] must only write
    disjoint state per chunk.  Shared with {!Stuck_at}. *)
