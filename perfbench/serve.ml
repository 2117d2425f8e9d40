(* The service workload: an open-loop, seeded schedule over two
   connections against [Server] running in a separate process (this
   executable re-run with --serve-child, so the generator's GC never
   stops the server's domains).

   Traffic is the warm loadgen mix on C17 (characterize 35 / partition
   25 / diagnose 15 / campaign_status 15 / metrics 10, every answer in
   the session cache after set-up) plus a fixed share of cold
   [diagnose] requests on the C432 stand-in, each with a fresh seed:
   they miss the session cache, run the defect simulation and diagnosis
   build, and drive LRU evictions.  Phases: a fixed rate [low], a fixed
   rate [high], then a fixed ladder of rates climbed until one misses
   the latency limit. *)

module Json = Iddq_util.Json
module Rng = Iddq_util.Rng
module Protocol = Iddq_server.Protocol
module Frame = Iddq_server.Frame
module Netbuf = Iddq_server.Netbuf
module Client = Iddq_server.Client
module Service = Iddq_server.Service
module Server = Iddq_server.Server

(* Fixed load settings.  On the machine the benchmark was defined on,
   the highest ladder rate met ranged from 6000/s to 10000/s between
   runs (too coarse and unsteady to bound, so [serve.max_rps] is a
   per-layer figure): [rate_high] is half the lowest of these, loaded
   but clear of saturation, where latencies stop being stationary;
   [rate_low] is a lightly loaded point.  A cold request costs some 3 ms of execute time and a warm
   one some 15 us, so at 2% the cold requests hold a worker about 10%
   of the time at [rate_high] and give some 500 cold samples in that
   phase: enough for a steady median and to show in the warm p99, not
   enough to saturate the two workers.  [job_s] is the cold p50 at
   [rate_low], where a cold request seldom waits for a worker: under
   load, queueing magnifies a slow spell of the machine (one that
   slowed set-up by 1.4 times raised the cold p50 at [rate_high] by
   1.75 times).  The low phase is the longest, some 250 cold samples.
   The ladder climbs in steps of 2000/s.  The session cache keeps the
   server's default size.  Connections and workers are fixed at 2, the
   core count of the machine the benchmark was defined on. *)
let connections = 2
let rate_low = 1000.0
let rate_high = 3000.0
let ladder = [ 2000.0; 4000.0; 6000.0; 8000.0; 10000.0 ]
let cold_share = 0.02
let p99_limit_ms = 20.0
let lag_limit_ms = 5.0
let workers = 2

(* Server starts timed before the load, and after each load phase. *)
let setup_samples_first = 20
let setup_samples_per_phase = 10

(* Phase lengths as shares of the measured time. *)
let low_share = 0.35
let high_share = 0.25
let rung_share = 0.08

let warm_circuit = "C17"
let cold_circuit = "C432"
let mix_method = Iddq.Pipeline.Standard
let mix_seed = 42

let diagnose ~handle ~seed =
  Protocol.Diagnose
    {
      handle;
      method_ = mix_method;
      seed;
      vectors = 16;
      defects = 20;
      defect_current = 2.0e-6;
      epsilon = 0.0;
      trials = 8;
      top_k = 2;
    }

let partition ~handle =
  Protocol.Partition
    {
      handle;
      method_ = mix_method;
      seed = mix_seed;
      module_size = None;
      require_feasible = false;
    }

type handles = { warm : string; cold : string; campaign : string }

type kind = Warm | Cold

let pick rng (h : handles) ~cold_seed =
  if Rng.float rng 1.0 < cold_share then
    (Cold, diagnose ~handle:h.cold ~seed:(cold_seed ()))
  else
    let d = Rng.int rng 100 in
    ( Warm,
      if d < 35 then Protocol.Characterize { handle = h.warm }
      else if d < 60 then partition ~handle:h.warm
      else if d < 75 then diagnose ~handle:h.warm ~seed:mix_seed
      else if d < 90 then Protocol.Campaign_status { campaign = h.campaign }
      else Protocol.Metrics )

(* ------------------------------------------------------------------ *)
(* Server process                                                      *)
(* ------------------------------------------------------------------ *)

(* The server process.  Once it listens it says so on its standard
   output, which the parent reads as a pipe. *)
let child ~socket =
  match
    Server.create ~socket ~workers ~max_pipeline:100_000 ~max_queue:100_000 ()
  with
  | Error e ->
    prerr_endline (Server.create_error_to_string e);
    exit 1
  | Ok srv ->
    print_string "ready\n";
    close_out stdout;
    Server.run srv

type server = { pid : int; socket : string }

(* A fresh socket path per server start: a spare server may start
   while the one under load still listens. *)
let starts = ref 0

let socket_path () =
  let dir = ".bench_build" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  incr starts;
  Printf.sprintf "%s/serve-%d-%d.sock" dir (Unix.getpid ()) !starts

let connect socket =
  match Client.connect ~socket with
  | Ok c -> c
  | Error e -> Common.fail "cannot reach the server: %s" e

(* Wait, at most 30 s, for the child's line on [fd]; end of file means
   it exited first. *)
let await_ready fd =
  match Unix.select [ fd ] [] [] 30.0 with
  | [], _, _ -> Common.fail "the server process did not start within 30 s"
  | _ ->
    if Unix.read fd (Bytes.create 6) 0 6 = 0 then
      Common.fail "the server process exited before listening"

(* A request's [ok] payload, through a client or an in-process service;
   an error reply fails the run. *)
let ask_client cl r =
  match Client.request cl r with
  | Ok payload -> payload
  | Error e -> Common.fail "%s" e

let ask_service svc r =
  let resp, _ = Service.handle svc (Protocol.request_to_json r) in
  match Protocol.response_payload resp with
  | Ok payload -> payload
  | Error e -> Common.fail "%s" e.Protocol.message

let str_member key j =
  match Option.bind (Json.member key j) Json.to_str with
  | Some s -> s
  | None -> Common.fail "a set-up response lacks %S" key

(* Set-up through [ask]: load both circuits, warm every operation of
   the warm mix and submit the campaign [campaign_status] polls. *)
let warm_up ask =
  let load name =
    str_member "handle"
      (ask (Protocol.Load_circuit { name = Some name; bench = None }))
  in
  let warm = load warm_circuit and cold = load cold_circuit in
  List.iter
    (fun r -> ignore (ask r))
    [
      Protocol.Characterize { handle = warm };
      Protocol.Characterize { handle = cold };
      partition ~handle:warm;
      diagnose ~handle:warm ~seed:mix_seed;
    ];
  let spec =
    Printf.sprintf "circuits = %s\nmethods = standard\nseeds = %d\n"
      warm_circuit mix_seed
  in
  let campaign =
    str_member "campaign" (ask (Protocol.Campaign_submit { spec; domains = 1 }))
  in
  { warm; cold; campaign }

let start () =
  let socket = socket_path () in
  let ready_r, ready_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--serve-child"; socket |]
      Unix.stdin ready_w Unix.stderr
  in
  Unix.close ready_w;
  match
    Fun.protect
      ~finally:(fun () -> Unix.close ready_r)
      (fun () -> await_ready ready_r);
    let cl = connect socket in
    let h = warm_up (ask_client cl) in
    Client.close cl;
    h
  with
  | h -> ({ pid; socket }, h)
  | exception e ->
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid);
    raise e

let stop srv =
  (match Client.connect ~socket:srv.socket with
  | Ok cl ->
    ignore (Client.request cl Protocol.Shutdown);
    Client.close cl
  | Error _ -> ());
  match Unix.waitpid [] srv.pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Common.fail "the server process did not exit cleanly"
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

(* ------------------------------------------------------------------ *)
(* Open-loop generator                                                 *)
(* ------------------------------------------------------------------ *)

type entry = {
  id : int;
  kind : kind;
  conn : int;
  due : float;  (** Offset from the phase start, seconds. *)
  frame : string;
  json : Json.t;
  key : string;  (** The request without its id. *)
}

type answer = {
  entry : entry;
  latency_ms : float;  (** From due time to the response read. *)
  lag_ms : float;  (** From due time to the send. *)
  code : string option;  (** Error code, if the response is an error. *)
  response : Json.t;
}

(* A phase's schedule: Poisson arrivals at [rate] for [duration],
   spread round-robin over the connections. *)
let schedule rng h ~rate ~duration ~first_id ~cold_seed =
  let rec go t i acc =
    let t = t +. (-.log (1.0 -. Rng.float rng 1.0) /. rate) in
    if t >= duration then List.rev acc
    else
      let kind, r = pick rng h ~cold_seed in
      let id = first_id + i in
      let json = Protocol.request_to_json ~id r in
      let key = Json.to_string (Protocol.request_to_json r) in
      go t (i + 1)
        ({ id; kind; conn = i mod connections; due = t; frame = Frame.encode json; json; key }
        :: acc)
  in
  Array.of_list (go 0.0 0 [])

type conn = { fd : Unix.file_descr; dec : Frame.decoder; out : Netbuf.t }

let open_conn socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Unix.set_nonblock fd;
  { fd; dec = Frame.create (); out = Netbuf.create () }

let flush c =
  let buf, off, len = Netbuf.peek c.out in
  if len > 0 then
    match Unix.write c.fd buf off len with
    | n -> Netbuf.consume c.out n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      ()

let rbuf = Bytes.create 65536

(* Drive one phase to completion: send each entry at its due time,
   whatever is outstanding, and read responses as they come. *)
let run_phase conns (entries : entry array) ~drain =
  let n = Array.length entries in
  let by_id = Hashtbl.create (2 * n) in
  Array.iter (fun e -> Hashtbl.replace by_id e.id e) entries;
  let sent_lag = Hashtbl.create (2 * n) in
  let answers = ref [] and ids = ref [] and answered = ref 0 in
  let t0 = Common.now () +. 0.01 in
  let next = ref 0 in
  let receive c =
    match Unix.read c.fd rbuf 0 (Bytes.length rbuf) with
    | 0 -> Common.fail "the server closed a connection"
    | k ->
      let now = Common.now () in
      Frame.feed_sub c.dec rbuf 0 k;
      let rec go () =
        match Frame.next c.dec with
        | None -> ()
        | Some (Frame.Frame j) ->
          let id =
            match Protocol.response_id j with
            | Some id -> id
            | None -> Common.fail "a response carries no id"
          in
          ids := id :: !ids;
          (match Hashtbl.find_opt by_id id with
          | None -> ()
          | Some e ->
            let code =
              match Protocol.response_payload j with
              | Ok _ -> None
              | Error err -> Some (Protocol.code_to_string err.Protocol.code)
            in
            answers :=
              {
                entry = e;
                latency_ms = (now -. (t0 +. e.due)) *. 1000.0;
                lag_ms = Hashtbl.find sent_lag id;
                code;
                response = j;
              }
              :: !answers);
          incr answered;
          go ()
        | Some (Frame.Malformed m) -> Common.fail "malformed response: %s" m
        | Some (Frame.Oversized k) -> Common.fail "oversized response (%d bytes)" k
      in
      go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      ()
  in
  let deadline = ref infinity in
  while !answered < n do
    let now = Common.now () in
    while !next < n && t0 +. entries.(!next).due <= now do
      let e = entries.(!next) in
      Netbuf.append_string conns.(e.conn).out e.frame;
      Hashtbl.replace sent_lag e.id ((now -. (t0 +. e.due)) *. 1000.0);
      incr next
    done;
    Array.iter flush conns;
    if !next = n && !deadline = infinity then deadline := now +. drain;
    if now > !deadline then
      Common.fail "%d of %d responses missing %.0f s after the phase" (n - !answered) n drain;
    let timeout =
      if !next < n then Float.max 0.0 (t0 +. entries.(!next).due -. now) else 0.05
    in
    let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
    let writes =
      List.filter_map
        (fun c -> if Netbuf.is_empty c.out then None else Some c.fd)
        (Array.to_list conns)
    in
    let readable, _, _ =
      try Unix.select fds writes [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    Array.iter (fun c -> if List.memq c.fd readable then receive c) conns
  done;
  (List.rev !answers, !ids)

type phase = { answers : answer list; ids : int list; sent : int }

let latencies ?kind answers =
  List.filter_map
    (fun a ->
      match kind with
      | Some k when a.entry.kind <> k -> None
      | _ -> if a.code = None then Some a.latency_ms else None)
    answers

let p50 xs = Common.percentile xs 50.0
let p99 xs = Common.percentile xs 99.0

(* A rate is met when warm p99 stays under the limit, nothing was
   shed or failed, and the generator kept up (no growing backlog shows
   as send lag). *)
let meets ph =
  List.for_all (fun a -> a.code = None) ph.answers
  && p99 (latencies ~kind:Warm ph.answers) < p99_limit_ms
  && p99 (List.map (fun a -> a.lag_ms) ph.answers) < lag_limit_ms

(* ------------------------------------------------------------------ *)
(* In-process replay: reply check and traced stages                    *)
(* ------------------------------------------------------------------ *)

(* A fresh in-process service set up as the server was. *)
let in_process () =
  let svc = Service.create () in
  ignore (warm_up (ask_service svc));
  svc

let payload_text j =
  match Protocol.response_payload j with
  | Ok p -> Json.to_string p
  | Error e -> "error " ^ Protocol.code_to_string e.Protocol.code

(* Replies that depend only on the request ([characterize],
   [partition], [diagnose]) must equal a fresh in-process service's
   reply to the same request; each distinct request is replayed once. *)
let check_replies (answers : answer list) =
  let svc = in_process () in
  let replies = Hashtbl.create 1024 in
  Fun.protect
    ~finally:(fun () -> Service.stop svc)
    (fun () ->
      List.iter
        (fun a ->
          match Json.member "op" a.entry.json, a.code with
          | Some (Json.String ("characterize" | "partition" | "diagnose")), None ->
            let expected =
              match Hashtbl.find_opt replies a.entry.key with
              | Some r -> r
              | None ->
                let r = payload_text (fst (Service.handle svc a.entry.json)) in
                Hashtbl.replace replies a.entry.key r;
                r
            in
            Checks.require
              (Checks.same_reply ~id:a.entry.id ~server:(payload_text a.response)
                 ~in_process:expected)
          | _ -> ())
        answers)

type stages = {
  decode_us : float;
  encode_us : float;
  execute_warm_us : float;
  execute_cold_us : float;
  overhead_s : float;  (** Timed replay minus plain replay, wall time. *)
}

(* Replay the recorded frames in this process on a fresh service:
   [Frame] plus [Protocol.request_of_json], [Service.handle], response
   [Json.to_string] plus [Frame.encode_payload].  With [timed], record
   each request's decode, execute and encode times.  Returns the
   replay's wall time and the records. *)
let replay ~timed (answers : answer list) =
  let svc = in_process () in
  let dec = Frame.create () in
  let clock = if timed then Common.now else fun () -> 0.0 in
  let records = ref [] in
  let t_start = Common.now () in
  List.iter
    (fun a ->
      let t0 = clock () in
      Frame.feed dec a.entry.frame;
      let j =
        match Frame.next dec with
        | Some (Frame.Frame j) -> j
        | _ -> Common.fail "a recorded frame does not decode"
      in
      (match Protocol.request_of_json j with
      | Ok _ -> ()
      | Error _ -> Common.fail "a recorded request does not decode");
      let t1 = clock () in
      let resp, _ = Service.handle svc j in
      let t2 = clock () in
      ignore (Frame.encode_payload (Json.to_string resp));
      let t3 = clock () in
      if timed then records := (a.entry.kind, t1 -. t0, t2 -. t1, t3 -. t2) :: !records)
    answers;
  let total = Common.now () -. t_start in
  Service.stop svc;
  (total, !records)

(* The replay untimed, timed, timed, untimed: a steady drift of the
   machine's speed cancels in the mean of the two differences.  The
   stages are the first timed replay's means (single stages take about
   a microsecond, near the clock's resolution; the mean of many
   samples is still exact on average). *)
let stages answers =
  let u1, _ = replay ~timed:false answers in
  let t1, records = replay ~timed:true answers in
  let t2, _ = replay ~timed:true answers in
  let u2, _ = replay ~timed:false answers in
  let us pick kind =
    Iddq_util.Stats.mean
      (Array.of_list
         (List.filter_map
            (fun (k, d, x, e) ->
              match kind with
              | Some k' when k <> k' -> None
              | _ -> Some (pick (d, x, e) *. 1e6))
            records))
  in
  {
    decode_us = us (fun (d, _, _) -> d) None;
    encode_us = us (fun (_, _, e) -> e) None;
    execute_warm_us = us (fun (_, x, _) -> x) (Some Warm);
    execute_cold_us = us (fun (_, x, _) -> x) (Some Cold);
    overhead_s = ((t1 -. u1) +. (t2 -. u2)) /. 2.0;
  }

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

type load = {
  low : phase;
  high : phase;
  max_rps : float;
  counters : Json.t option;
  server_rss_mb : float;
  all : answer list;
  sent : int;
  setups : float list;
  calib : float list;
}

(* Set-up samples: server starts timed from the spawn to the end of the
   warm-up, a few before the load and a few after each phase, so they
   spread over the run as the load does.  The last start before the
   load is the server under load; the others are stopped at once. *)
let drive (o : Common.opts) =
  let setups = ref [] and calib = ref [] in
  let calibrate () = calib := Common.calib_sample () :: !calib in
  let timed_start () =
    let s, v = Common.time start in
    setups := s :: !setups;
    v
  in
  let spare_starts n =
    for _ = 1 to n do
      stop (fst (timed_start ()))
    done
  in
  spare_starts (setup_samples_first - 1);
  calibrate ();
  let srv, h = timed_start () in
  let load () =
    let rng = Rng.create o.Common.seed in
    let cold_counter = ref 0 in
    let cold_seed () =
      incr cold_counter;
      (o.Common.seed * 1_000_003) + !cold_counter
    in
    let conns = Array.init connections (fun _ -> open_conn srv.socket) in
    let next_id = ref 0 in
    let phase rate share =
      let duration = o.Common.seconds *. share in
      let entries = schedule rng h ~rate ~duration ~first_id:!next_id ~cold_seed in
      next_id := !next_id + Array.length entries;
      let answers, ids = run_phase conns entries ~drain:30.0 in
      calibrate ();
      spare_starts setup_samples_per_phase;
      { answers; ids; sent = Array.length entries }
    in
    let low = phase rate_low low_share in
    let high = phase rate_high high_share in
    let rec climb best = function
      | [] -> (best, [])
      | rate :: rest ->
        let ph = phase rate rung_share in
        if meets ph then
          let best', more = climb rate rest in
          (best', ph :: more)
        else (best, [ ph ])
    in
    let max_rps, rungs = climb 0.0 ladder in
    let cl = connect srv.socket in
    let counters = Json.member "counters" (ask_client cl Protocol.Metrics) in
    Client.close cl;
    let server_rss_mb = Common.peak_rss_mb ~pid:(string_of_int srv.pid) () in
    Array.iter (fun c -> Unix.close c.fd) conns;
    let phases = low :: high :: rungs in
    let all = List.concat_map (fun p -> p.answers) phases in
    let sent = List.fold_left (fun acc (p : phase) -> acc + p.sent) 0 phases in
    Checks.require
      (Checks.responses ~sent
         ~answered_ids:(List.concat_map (fun p -> p.ids) phases)
         ~codes:(List.filter_map (fun a -> a.code) all)
         ~allowed:[ "overloaded" ]);
    { low; high; max_rps; counters; server_rss_mb; all; sent; setups = []; calib = [] }
  in
  let l =
    match load () with
    | l ->
      stop srv;
      l
    | exception e ->
      (try stop srv with Common.Check_failed _ -> ());
      raise e
  in
  check_replies l.all;
  { l with setups = !setups; calib = !calib }

let run (o : Common.opts) =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let l = drive o in
  let failed = List.length (List.filter (fun a -> a.code <> None) l.all) in
  let warm_high = latencies ~kind:Warm l.high.answers in
  let cold_low = latencies ~kind:Cold l.low.answers in
  let served =
    [
      ("serve.warm_p50_ms", p50 warm_high);
      ("serve.warm_p99_ms", p99 warm_high);
      ("serve.cold_p50_ms", p50 cold_low);
      ("serve.max_rps", l.max_rps);
    ]
  in
  let report =
    List.map (fun (k, v) -> (k, v, if k = "serve.max_rps" then "1/s" else "ms")) served
    @ [
        ("warm_p50_ms.low", p50 (latencies ~kind:Warm l.low.answers), "ms");
        ("cold_p50_ms.high", p50 (latencies ~kind:Cold l.high.answers), "ms");
        ("warm_samples.high", float_of_int (List.length warm_high), "count");
        ("cold_samples.low", float_of_int (List.length cold_low), "count");
        ("error_rate", float_of_int failed /. float_of_int l.sent, "fraction");
      ]
    @ Common.timing_report "setup_s" l.setups
    @ [ ("host.calib_ms", Common.median l.calib, "ms") ]
  in
  if not o.Common.trace then
    {
      Common.attempted = l.sent;
      failed;
      metrics =
        [
          ("job_s", p50 cold_low /. 1000.0);
          ("setup_s", Common.median l.setups);
          ("peak_rss_mb", l.server_rss_mb);
        ];
      report;
    }
  else begin
    let r = stages l.high.answers in
    let counter k =
      match Option.bind l.counters (Json.member k) with
      | Some v -> Option.value (Json.to_float v) ~default:0.0
      | None -> 0.0
    in
    {
      Common.attempted = l.sent;
      failed;
      metrics =
        served
        @ [
            ("server.decode_us", r.decode_us);
            ("server.encode_us", r.encode_us);
            ("server.execute_us.warm", r.execute_warm_us);
            ("server.execute_us.cold", r.execute_cold_us);
            ("server.transport_ms", p50 warm_high -. (r.execute_warm_us /. 1000.0));
            ("server.cache_hits", counter "cache_hits");
            ("server.cache_misses", counter "cache_misses");
            ("server.cache_evictions", counter "cache_evictions");
            ("server.sheds", counter "sheds");
            ("server.queue_peak", counter "queue_peak");
            ("server.wbuf_peak", counter "wbuf_peak");
            ("loadgen.lag_p99_ms", p99 (List.map (fun a -> a.lag_ms) l.all));
            (* The load runs untraced in both modes; the spans are in
               the in-process replay. *)
            ("trace.overhead_s", r.overhead_s);
            ("host.calib_ms", Common.median l.calib);
          ];
      report;
    }
  end
