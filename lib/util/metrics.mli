(** Observability counters: a registry of declared, typed counters.

    Every optimizer in the library spends essentially all of its time
    in cost evaluation, the fault simulators in 64-vector block
    passes, and the resident service in requests, so the counters
    below make throughput (and regressions in it) visible: how many
    evaluations ran and how many were full recomputations versus
    cache-assisted delta updates, how much per-gate work each kind
    performed, how many simulation blocks ran, and how the service's
    cache and admission control behaved.

    Each counter is declared once, here, as a typed handle carrying
    its wire name and its {!kind}.  Snapshots, {!diff}, {!reset},
    {!strip_timing}, {!to_json}/{!of_json} and {!pp} are each written
    once over the declared list {!all}, so adding a counter is one
    declaration in [metrics.ml] plus its recording call.

    Counters are {!Stdlib.Atomic} cells: code running in parallel
    [Domain]s (the ES offspring evaluation, the fault-chunk pool) may
    record into one shared instance without tearing.  A handle
    resolves to its cell at declaration, so recording is one atomic
    operation, never a name lookup.  Timings are seconds (CPU seconds
    from [Sys.time] for the evaluators, wall-clock for requests). *)

(** {1 Counters} *)

type _ kind =
  | Sum : int kind  (** An event count or amount; diffs subtract. *)
  | Seconds : float kind
      (** Accumulated seconds: a timing field, zeroed by
          {!strip_timing}. *)
  | Peak : int kind
      (** A high-water mark; a diff keeps the later mark. *)

type 'a counter
(** A declared counter holding values of type ['a]. *)

type any = Any : 'a counter -> any

val name : 'a counter -> string
(** The wire name: the key under ["counters"] in the service's
    [metrics] response and under ["metrics"] in a campaign JSONL
    record. *)

val kind : 'a counter -> 'a kind

val full_evals : int counter
(** Complete cost recomputations. *)

val delta_evals : int counter
(** Cache-assisted recomputations. *)

val eval_cache_hits : int counter
(** Cost queries served entirely from a valid evaluator cache. *)

val moves : int counter
(** Gate moves applied through an incremental evaluator. *)

val gates_full : int counter
(** Per-gate degradation recomputations done by full evaluations (the
    sum of circuit sizes over {!full_evals}). *)

val gates_delta : int counter
(** Per-gate degradation recomputations done by delta evaluations. *)

val seconds_full : float counter
(** CPU seconds spent in full evaluations. *)

val seconds_delta : float counter
(** CPU seconds spent in delta evaluations. *)

val sim_blocks : int counter
(** Good-machine 64-vector blocks evaluated by the packed fault
    simulators. *)

val sim_fault_blocks : int counter
(** Per-fault block passes performed by the packed fault simulators. *)

val sim_faults_dropped : int counter
(** Faults dropped (detected, never re-simulated) by fault dropping. *)

val sim_steals : int counter
(** Fault chunks a pool participant executed beyond an even static
    split (work the round-robin scheduler rebalanced). *)

val requests : int counter
(** Service requests answered (ok or error). *)

val requests_failed : int counter
(** Requests answered with a protocol error. *)

val seconds_requests : float counter
(** Wall-clock seconds spent answering requests. *)

val cache_hits : int counter
(** Session-cache lookups served by the resident service (a parsed
    circuit, characterization, vector set, ... reused). *)

val cache_misses : int counter
(** Session-cache lookups computed and stored. *)

val cache_evictions : int counter
(** Session-cache entries evicted by the LRU size bound. *)

val sheds : int counter
(** Requests refused with [overloaded] by the server's admission
    control (pipeline-depth or queue-depth limit hit). *)

val queue_peak : int counter
(** High-water mark of the server's pending-request queue. *)

val wbuf_peak : int counter
(** High-water mark of any connection's write buffer, bytes. *)

val all : any list
(** Every declared counter, in declaration order. *)

(** {1 Counter sets} *)

type t
(** A mutable set of every declared counter. *)

val create : unit -> t
(** A fresh counter set, all zeros. *)

val global : t
(** The shared default instance.  {!val-Iddq_core.Cost.evaluate} and
    (unless given an explicit instance) [Iddq_core.Cost_eval] record
    here, so snapshots around a phase measure the whole library. *)

val record : t -> 'a counter -> 'a -> unit
(** One lock-free atomic update, by the counter's kind: a [Sum] or
    [Seconds] counter adds the value, a [Peak] counter keeps the
    maximum. *)

val incr : t -> int counter -> unit
(** [record t c 1]. *)

val record_full : t -> gates:int -> seconds:float -> unit
(** One complete cost evaluation that recomputed the degradation of
    [gates] gates. *)

val record_delta : t -> gates:int -> seconds:float -> unit
(** One cache-assisted evaluation that recomputed only [gates] gates
    (the modules touched since the previous evaluation). *)

val reset : t -> unit

(** {1 Snapshots} *)

type snapshot
(** An immutable copy of every counter.  Structural equality compares
    all of them. *)

val snapshot : t -> snapshot
(** Each counter is read atomically; the set is not read under one
    lock. *)

val get : snapshot -> 'a counter -> 'a

val diff : snapshot -> snapshot -> snapshot
(** [diff after before] — increments between two snapshots of the
    same instance; a [Peak] counter carries [after]'s mark. *)

val strip_timing : snapshot -> snapshot
(** Zero the [Seconds] counters; what is left is deterministic for a
    deterministic job. *)

val to_json : snapshot -> Json.t
(** One JSON object keyed by {!name}: [Sum]/[Peak] counters as JSON
    ints, [Seconds] counters as JSON floats. *)

val of_json : Json.t -> (snapshot, string) result
(** Inverse of {!to_json}.  An absent counter is zero; a counter
    present with the wrong JSON type is an [Error].  Campaign stores
    written before the wire names were unified still decode: a counter
    absent under its name is looked up under its legacy key ([full],
    [hits], [sec_full], [srv_hits], ...).  Unknown keys are ignored. *)

(** {1 Derived measures} *)

val evaluations : snapshot -> int
(** Cost queries answered: [full + delta + eval cache hits]. *)

val equivalent_evals : snapshot -> float
(** The work performed, in units of one full [Cost.evaluate]:
    [full_evals + gates_delta / (gates_full / full_evals)].  The
    normalizer is the mean circuit size seen by the full evaluations;
    when no full evaluation was recorded the delta work cannot be
    normalized and every delta evaluation is counted as a full one
    (a pessimistic upper bound). *)

val speedup : snapshot -> float
(** [evaluations / equivalent_evals]: how many times fewer
    full-evaluation equivalents were performed than a
    recompute-everything evaluator answering the same queries. *)

val rows : snapshot -> (string * string) list
(** The derived measures, then every counter, as rendered
    [(name, value)] pairs: what {!pp} prints and report tables show. *)

val pp : Format.formatter -> snapshot -> unit
(** {!rows} as [name=value] pairs. *)
