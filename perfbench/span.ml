(* Span accumulators for the traced run.

   Spans are recorded from the benchmark's own files, around the calls
   it makes into each library layer; the libraries themselves carry no
   tracing.  Every accumulator is atomic, so a span may close on any
   domain (the ES evaluates offspring costs on several). *)

let now () = Unix.gettimeofday ()
let now_ns () = Int64.to_int (Int64.of_float (now () *. 1e9))

type t = { ns : int Atomic.t; calls : int Atomic.t }

let create () = { ns = Atomic.make 0; calls = Atomic.make 0 }

let add t ns =
  ignore (Atomic.fetch_and_add t.ns ns);
  Atomic.incr t.calls

let time t f =
  let t0 = now_ns () in
  let r = f () in
  add t (now_ns () - t0);
  r

let seconds t = float_of_int (Atomic.get t.ns) /. 1e9
let calls t = Atomic.get t.calls

(* Wall-clock coverage of spans that may overlap across domains: the
   union of one phase's spans is taken as [first start, last end], and
   a phase ends when [flush] is called from the coordinating domain. *)
type wall = {
  first : int Atomic.t;
  last : int Atomic.t;
  covered : int Atomic.t;
}

let no_start = max_int

let wall () =
  { first = Atomic.make no_start; last = Atomic.make 0; covered = Atomic.make 0 }

let rec atomic_min a v =
  let cur = Atomic.get a in
  if v < cur && not (Atomic.compare_and_set a cur v) then atomic_min a v

let rec atomic_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

let time_in_phase span w f =
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  add span (t1 - t0);
  atomic_min w.first t0;
  atomic_max w.last t1;
  r

let flush w =
  let first = Atomic.get w.first in
  if first <> no_start then begin
    ignore (Atomic.fetch_and_add w.covered (Atomic.get w.last - first));
    Atomic.set w.first no_start;
    Atomic.set w.last 0
  end

let covered_seconds w =
  flush w;
  float_of_int (Atomic.get w.covered) /. 1e9
