(** Request/response vocabulary of the resident partition service.

    One request per frame, one response per frame.  A request is a
    JSON object [{"op": "...", "id": N?, ...parameters}]; the optional
    [id] is echoed in the response so clients may pipeline.  A
    response is [{"id": N?, "ok": payload}] or
    [{"id": N?, "error": {"code": "...", "message": "..."}}].

    Defaults mirror the CLI: seed 42, 64 vectors, 200 defects, 2 µA
    defect current, 1 campaign domain. *)

type request =
  | Load_circuit of { name : string option; bench : string option }
      (** Exactly one of [name] (a built-in
          {!Iddq_netlist.Iscas.by_name} circuit) or [bench] (inline
          ISCAS85 [.bench] text).  Answers with the session [handle]
          (the content hash) every later request refers to. *)
  | Characterize of { handle : string }
  | Partition of {
      handle : string;
      method_ : Iddq.Pipeline.method_;
      seed : int;
      module_size : int option;
      require_feasible : bool;
    }
  | Fault_sim of {
      handle : string;
      method_ : Iddq.Pipeline.method_;
      seed : int;
      vectors : int;
      defects : int;
      defect_current : float;  (** Amperes. *)
    }
  | Diagnose of {
      handle : string;
      method_ : Iddq.Pipeline.method_;
      seed : int;
      vectors : int;
      defects : int;
      defect_current : float;  (** Amperes. *)
      epsilon : float;
          (** Per-measurement flip probability, [0 <= e < 0.5];
              [0.] = noiseless exact matching. *)
      trials : int;  (** Monte-Carlo localization trials. *)
      top_k : int;  (** [k] for the top-[k] module accuracy. *)
    }
      (** Build the diagnosis engine ({!Iddq_diagnose.Diagnose}) for
          the handle's partition — sharing the partition and vector-set
          session cache with [fault_sim] — and answer with its
          diagnosability summary plus measured localization accuracy. *)
  | Testset of {
      handle : string;
      seed : int;
      random_vectors : int;  (** Random vectors before the PODEM top-up. *)
      max_backtracks : int;  (** Per-target PODEM backtrack limit. *)
      budget : int option;
          (** PODEM target-attempt cap; wire field [budget], [0] or
              absent = unlimited. *)
      strategy : Iddq_atpg.Atpg.strategy;
          (** Wire field [strategy]: ["greedy"], ["essential"] or
              ["refined"] (the default). *)
    }
      (** Generate and minimize a stuck-at test set for the handle's
          circuit via the {!Iddq_atpg.Atpg} facade.  Generation is
          memoized in the session cache keyed on everything {e except}
          [strategy], so strategy sweeps reuse one generated set and
          detection matrix.  Answers with vector counts before/after
          minimization, coverage, efficiency and the generation
          statistics. *)
  | Campaign_submit of { spec : string; domains : int }
      (** [spec] is campaign spec-file text ({!Iddq_campaign.Spec.parse}). *)
  | Campaign_status of { campaign : string }
  | Metrics
  | Shutdown

type error_code =
  | Bad_request  (** Missing/ill-typed parameters, bad configs, parse errors. *)
  | Unknown_op
  | Not_found  (** Unknown handle, circuit name, or campaign id. *)
  | Infeasible  (** [require_feasible] was set and the best partition is not. *)
  | Malformed_frame  (** Frame payload was not valid JSON. *)
  | Oversized_frame  (** Frame length above the server's cap. *)
  | Budget_exceeded  (** The request ran past the server's wall-clock budget. *)
  | Overloaded
      (** Load shed: the connection's pipeline-depth limit or the
          server's global queue-depth limit was hit.  The request was
          {e not} queued; retry after draining in-flight responses. *)
  | Internal

type error = { code : error_code; message : string }

val error : error_code -> string -> error
val code_to_string : error_code -> string
val code_of_string : string -> error_code option

val of_pipeline_error : Iddq.Pipeline.error -> error
(** Map the facade's structured error onto a wire error code. *)

val of_atpg_error : Iddq_atpg.Atpg.error -> error
(** Same for the ATPG facade: validation errors become [Bad_request],
    a PODEM budget exhaustion becomes [Budget_exceeded]. *)

(** {1 Requests} *)

val request_of_json :
  Iddq_util.Json.t -> (int option * request, int option * error) result
(** Decode a request frame.  The [int option] is the request [id],
    echoed even on errors when it could be read. *)

val request_to_json : ?id:int -> request -> Iddq_util.Json.t
(** Encode (used by clients and the fuzz corpus);
    [request_of_json (request_to_json ?id r) = Ok (id, r)]. *)

(** {1 Responses} *)

val ok_response : id:int option -> Iddq_util.Json.t -> Iddq_util.Json.t
val error_response : id:int option -> error -> Iddq_util.Json.t

val response_payload :
  Iddq_util.Json.t -> (Iddq_util.Json.t, error) result
(** Split a received response into its [ok] payload or [error]. *)

val response_id : Iddq_util.Json.t -> int option
