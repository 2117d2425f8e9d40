(** Generic evolution strategy (paper §4.1, after Rechenberg/Schwefel).

    One cycle: {e recombination} (here plain duplication — the paper
    found one parent per child sufficient), {e mutation} (λ mutated
    children and χ Monte-Carlo children per parent), and {e selection}
    (parents older than the maximum lifetime ω are discarded; the μ
    cheapest individuals survive).  Each descendant carries its own
    mutation step width [m], itself mutated with a normal perturbation
    of standard deviation ε. *)

type params = {
  mu : int;  (** Number of parents μ. *)
  lambda : int;  (** Mutated children per parent λ. *)
  chi : int;  (** Monte-Carlo children per parent χ. *)
  omega : int;  (** Maximum lifetime ω (generations). *)
  m_init : int;  (** Initial step width [m] (max gates moved). *)
  epsilon : float;  (** Std-dev of the step-width mutation ε. *)
  max_generations : int;
  stall_generations : int;
      (** Stop after this many generations without improvement of the
          best cost ("until the results converged", §5.1). *)
  domains : int;
      (** Domains used to evaluate offspring costs in parallel (the
          μ·(λ+χ) candidates of a generation are independent).  All
          rng draws (copying and mutating) stay on the calling domain
          in a fixed order, so the run is deterministic and identical
          for every value of [domains].  With [domains > 1] the
          problem's [cost] must be safe to call concurrently on
          distinct solutions; one {!Iddq_util.Domain_pool} of that
          size serves the whole {!run}.  Default 1 (fully
          sequential). *)
}

val default_params : params
(** μ=4, λ=7, χ=2, ω=5, m=4, ε=1.5, 500 generations max, stall 60,
    1 domain. *)

type 'a problem = {
  copy : 'a -> 'a;
  cost : 'a -> float;
      (** Smaller is better; constraint violations must already be
          folded in (penalty). *)
  mutate : Iddq_util.Rng.t -> step:int -> 'a -> unit;
      (** In-place neighbourhood mutation with the given step width. *)
  monte_carlo : Iddq_util.Rng.t -> 'a -> unit;
      (** In-place large random jump. *)
}

type 'a individual = {
  solution : 'a;
  cost : float;
  age : int;
  step : int;
}

type generation_report = {
  generation : int;
  best_cost : float;
  mean_cost : float;
  population : int;
}

val run :
  ?on_generation:(generation_report -> unit) ->
  params ->
  Iddq_util.Rng.t ->
  'a problem ->
  'a list ->
  'a individual * generation_report list
(** [run params rng problem starts] evolves from the given start
    solutions (at least one; they are copied, the inputs are not
    mutated).  Returns the best individual ever seen and the
    per-generation trace (oldest first). *)
