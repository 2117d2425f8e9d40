(* CPU affinity of the calling thread (a domain's system thread).
   Domains spawned later inherit it, so a multi-domain job must run
   with the whole set. *)

external allowed : unit -> int array = "perfbench_allowed_cpus"
external set : int array -> bool = "perfbench_set_cpus"
