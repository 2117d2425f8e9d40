(* What every workload shares: its run options, the outcome it hands
   back for printing, failed output checks, medians, memory, the host
   calibration loop and the two run loops (plain and traced). *)

type opts = {
  seed : int;
  seconds : float;  (** Length of the measured phase. *)
  trace : bool;
}

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
      (** Tracked metrics by name: the end-to-end set with tracing off,
          the per-layer set with tracing on. *)
  report : (string * float * string) list;
      (** Workload-specific figures printed for people before the
          result line (name, value, unit); not tracked. *)
}

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

let now = Span.now

let time f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

let median xs =
  match xs with
  | [] -> fail "no samples for a median"
  | _ -> Iddq_util.Stats.median (Array.of_list xs)

let minimum xs =
  match xs with
  | [] -> fail "no samples for a minimum"
  | x :: rest -> List.fold_left Float.min x rest

let percentile xs p =
  match xs with
  | [] -> fail "no samples for a percentile"
  | _ -> Iddq_util.Stats.percentile (Array.of_list xs) p

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Words allocated so far on the calling domain's minor heap.  The
   count is exact at any moment; the major heap's counters are only
   brought up to date at GC slices, so words allocated there directly
   (blocks too large for the minor heap) would be attributed to
   whichever span runs the next slice. *)
let allocated_words () = Gc.minor_words ()

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb ?(pid = "self") () =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> fail "cannot read %s" path
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> Some (float_of_int kb /. 1024.0))
        else scan ()
    in
    let r = scan () in
    close_in ic;
    (match r with Some mb -> mb | None -> fail "no VmHWM in %s" path)

(* Restart the kernel's peak-RSS count of this process at its current
   resident set; without permission the peak stays process-wide. *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    output_string oc "5";
    close_out oc
  with Sys_error _ -> ()

(* Host calibration: a fixed integer loop of about a millisecond,
   timed between jobs throughout a run.  Its median tells a slow host
   from a regression; it is context only and never divides a metric. *)
let calib_iterations = 1_000_000

let calib_sample () =
  let t0 = now () in
  let x = ref 1 in
  for i = 1 to calib_iterations do
    x := (!x * 1103515245) + i
  done;
  let ms = (now () -. t0) *. 1000.0 in
  if !x = 0 then fail "calibration loop reached zero";
  ms

(* One set-up sample: [reps] repetitions of a set-up step timed as a
   whole from a compacted heap; the time per repetition and the value
   the last repetition built. *)
let setup_sample ~reps f =
  Gc.compact ();
  let t0 = now () in
  let v = ref (f ()) in
  for _ = 2 to reps do
    v := f ()
  done;
  ((now () -. t0) /. float_of_int reps, !v)

type 'r jobs = {
  setup_s : float list;
  job_s : float list;
  rss_mb : float list;
  calib_ms : float list;
  first : 'r;  (** Result of the untimed warm-up job. *)
}

(* The plain run.  The input is built once by the set-up step; job 0
   runs untimed as a warm-up and its result is the reference.  Then
   jobs repeat on that same input until [seconds] have passed and at
   least [min_jobs] ran, so the set of inputs never depends on the
   machine's speed.  Before each job come [setups_per_job] set-up
   samples and a calibration sample, so both spread over the run as
   the jobs do.  Each job starts from a compacted heap and a reset
   peak, as if it ran alone, and its result must equal the
   reference ([same]).

   With [rotate_cpus] (for single-domain jobs only), job [k] and the
   samples before it run pinned to the [k]-th allowed CPU, round
   robin.  On a shared host each CPU has slow spells of its own,
   seconds to minutes long, that slow jobs by up to 1.8 times while
   the other CPU runs at full speed; a job left where the scheduler
   put it can sit on the slow one for a whole run. *)
let run_jobs ?(rotate_cpus = false) ~seconds ~min_jobs ~setup:(reps, build)
    ~setups_per_job ~same job =
  let cpus = Affinity.allowed () in
  let pin k =
    if rotate_cpus && Array.length cpus > 1 then
      ignore (Affinity.set [| cpus.(k mod Array.length cpus) |])
  in
  Fun.protect ~finally:(fun () -> if rotate_cpus then ignore (Affinity.set cpus))
  @@ fun () ->
  let _, input = setup_sample ~reps build in
  Gc.compact ();
  let first = job input in
  let t0 = now () in
  let rec go k acc =
    if k >= min_jobs && now () -. t0 >= seconds then
      {
        acc with
        setup_s = List.rev acc.setup_s;
        job_s = List.rev acc.job_s;
        rss_mb = List.rev acc.rss_mb;
        calib_ms = List.rev acc.calib_ms;
      }
    else begin
      pin k;
      let setups =
        List.init setups_per_job (fun _ -> fst (setup_sample ~reps build))
      in
      let c = calib_sample () in
      Gc.compact ();
      reset_peak_rss ();
      let s, r = time (fun () -> job input) in
      let rss = peak_rss_mb () in
      same ~reference:first r;
      go (k + 1)
        {
          acc with
          setup_s = List.rev_append setups acc.setup_s;
          job_s = s :: acc.job_s;
          rss_mb = rss :: acc.rss_mb;
          calib_ms = c :: acc.calib_ms;
        }
    end
  in
  go 0 { setup_s = []; job_s = []; rss_mb = []; calib_ms = []; first }

let timing_report name xs =
  [
    (name ^ ".min", minimum xs, "s");
    (name ^ ".p50", median xs, "s");
    (name ^ ".p25", percentile xs 25.0, "s");
    (name ^ ".p75", percentile xs 75.0, "s");
    (name ^ ".samples", float_of_int (List.length xs), "count");
  ]

(* The plain run's outcome: the fastest job, and medians of the set-up
   and peak-RSS samples, with every sample count in the report.  Every
   job repeats the same deterministic work, so the fastest is the one
   the host's slow spells, which last from seconds to minutes and slow
   jobs by up to 1.8 times, touched least; a run's median lands
   wherever those spells fell. *)
let plain_outcome (j : _ jobs) ~report =
  {
    attempted = List.length j.job_s + 1;
    failed = 0;
    metrics =
      [
        ("job_s", minimum j.job_s);
        ("setup_s", median j.setup_s);
        ("peak_rss_mb", median j.rss_mb);
      ];
    report =
      timing_report "job_s" j.job_s
      @ timing_report "setup_s" j.setup_s
      @ [ ("host.calib_ms", median j.calib_ms, "ms") ]
      @ report;
  }

type 'l traced = {
  layers : 'l;  (** Spans of the traced job with the median wall time. *)
  traced_s : float;  (** That job's wall time. *)
  overhead_s : float;
      (** Median traced minus median untraced wall time. *)
  calib : float list;
  jobs : int;
}

(* The traced run: untraced and traced jobs on the same input,
   alternating, until [seconds] have passed and each kind ran at least
   twice.  Every result must equal the first untraced one.  The layers
   reported are those of one job, the traced job with the median wall
   time, so its spans add up as they did in that job. *)
let run_traced ~seconds ~same ~untraced ~traced =
  Gc.compact ();
  let first = untraced () in
  let t0 = now () in
  let rec go k us ts calib =
    if k >= 2 && now () -. t0 >= seconds then (us, ts, calib)
    else begin
      let c = calib_sample () in
      Gc.compact ();
      let u, ru = time untraced in
      same ~reference:first ru;
      Gc.compact ();
      let t, (rt, layers) = time traced in
      same ~reference:first rt;
      go (k + 1) (u :: us) ((t, layers) :: ts) (c :: calib)
    end
  in
  let us, ts, calib = go 0 [] [] [] in
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) ts in
  let traced_s, layers = List.nth sorted (List.length sorted / 2) in
  {
    layers;
    traced_s;
    overhead_s = median (List.map fst ts) -. median us;
    calib;
    jobs = 1 + List.length us + List.length ts;
  }

(* The traced run's figure for a set-up step, in ms: the median of a
   few samples. *)
let setup_ms ~reps f =
  1000.0 *. median (List.init 9 (fun _ -> fst (setup_sample ~reps f)))

(* The share of the reported traced job's wall time that its top-level
   spans, named by [keys] among [layers], cover. *)
let spans_share t layers keys =
  let covered = List.fold_left (fun acc k -> acc +. List.assoc k layers) 0.0 keys in
  ("trace.spans_share_of_job", covered /. t.traced_s, "ratio")

let traced_outcome t ~layers ~report =
  {
    attempted = t.jobs;
    failed = 0;
    metrics =
      layers
      @ [ ("trace.overhead_s", t.overhead_s); ("host.calib_ms", median t.calib) ];
    report = ("traced_job_s", t.traced_s, "s") :: report;
  }
