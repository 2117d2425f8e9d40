module Json = Iddq_util.Json
module Metrics = Iddq_util.Metrics
module Domain_pool = Iddq_util.Domain_pool

(* ------------------------------------------------------------------ *)
(* Creation errors                                                     *)
(* ------------------------------------------------------------------ *)

type create_error =
  | Address_in_use of string
  | Cannot_listen of { socket : string; message : string }

let create_error_to_string = function
  | Address_in_use socket ->
    Printf.sprintf "%s: address already in use (a live server answers on it)"
      socket
  | Cannot_listen { socket; message } ->
    Printf.sprintf "cannot listen on %s: %s" socket message

(* ------------------------------------------------------------------ *)
(* Connection state (owned by the event loop; the [pending] queue and
   [executing]/[alive] flags are shared with workers under the
   scheduler lock)                                                     *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  decoder : Frame.decoder;
  wbuf : Netbuf.t;  (* encoded responses awaiting the socket *)
  mutable inflight : int;  (* admitted requests not yet answered *)
  mutable read_open : bool;  (* still decoding new requests *)
  mutable close_after_flush : bool;
  (* shared with workers, under the scheduler lock: *)
  pending : Json.t Queue.t;  (* admitted requests not yet claimed *)
  mutable executing : bool;  (* a worker holds one of our requests *)
  mutable alive : bool;  (* false once the event loop dropped us *)
}

type t = {
  listen_fd : Unix.file_descr;
  socket : string;
  service : Service.t;
  metrics : Metrics.t;
  max_frame : int;
  max_pipeline : int;
  max_queue : int;
  drain_timeout : float;
  pool : Domain_pool.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  (* scheduler state, under [m] *)
  m : Mutex.t;
  work_cv : Condition.t;
  ring : conn Queue.t;  (* round-robin of conns with claimable work *)
  completions : (conn * string * [ `Continue | `Shutdown ]) Queue.t;
  mutable queued : int;  (* pending requests across all conns *)
  mutable halt_workers : bool;
  mutable stop_requested : bool;  (* external shutdown ask *)
  mutable wake_open : bool;
}

let service t = t.service
let socket_path t = t.socket

let default_max_pipeline = 8
let default_max_queue = 256

(* ------------------------------------------------------------------ *)
(* create: probe-then-bind                                             *)
(* ------------------------------------------------------------------ *)

(* A connect that succeeds means a live server owns the path; a
   refused/failed connect means the path is stale (or not a socket at
   all) and safe to replace. *)
let probe_live socket =
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> false
  | fd ->
    let live =
      match Unix.connect fd (Unix.ADDR_UNIX socket) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    live

let create ~socket ?(max_frame = Frame.default_max_frame) ?(workers = 2)
    ?(max_pipeline = default_max_pipeline) ?(max_queue = default_max_queue)
    ?(drain_timeout = 5.0) ?budget ?metrics ?cache_entries () =
  if Sys.file_exists socket && probe_live socket then
    Error (Address_in_use socket)
  else
    match
      (try if Sys.file_exists socket then Sys.remove socket
       with Sys_error _ -> ());
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try
         Unix.bind fd (Unix.ADDR_UNIX socket);
         Unix.listen fd 64;
         Unix.set_nonblock fd
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e);
      let wake_r, wake_w = Unix.pipe ~cloexec:true () in
      Unix.set_nonblock wake_r;
      Unix.set_nonblock wake_w;
      (fd, wake_r, wake_w)
    with
    | listen_fd, wake_r, wake_w ->
      let service = Service.create ?metrics ?budget ?cache_entries () in
      Ok
        {
          listen_fd;
          socket;
          service;
          metrics = Service.metrics service;
          max_frame;
          max_pipeline = Stdlib.max 1 max_pipeline;
          max_queue = Stdlib.max 1 max_queue;
          drain_timeout;
          pool = Domain_pool.create ~domains:(Stdlib.max 1 workers);
          wake_r;
          wake_w;
          m = Mutex.create ();
          work_cv = Condition.create ();
          ring = Queue.create ();
          completions = Queue.create ();
          queued = 0;
          halt_workers = false;
          stop_requested = false;
          wake_open = true;
        }
    | exception Unix.Unix_error (err, fn, _) ->
      Error
        (Cannot_listen
           {
             socket;
             message = Printf.sprintf "%s (%s)" (Unix.error_message err) fn;
           })
    | exception Sys_error message -> Error (Cannot_listen { socket; message })

(* ------------------------------------------------------------------ *)
(* Waking the event loop from another domain                           *)
(* ------------------------------------------------------------------ *)

let wake_byte = Bytes.make 1 '!'

(* Nonblocking: a full pipe already guarantees a pending wake-up.
   The write happens under the lock so [run]'s teardown (which clears
   [wake_open] under the same lock before closing the pipe) can never
   race us into a recycled descriptor. *)
let wake t =
  Mutex.lock t.m;
  (if t.wake_open then
     match Unix.write t.wake_w wake_byte 0 1 with
     | _ -> ()
     | exception Unix.Unix_error _ -> ());
  Mutex.unlock t.m

let shutdown t =
  Mutex.lock t.m;
  t.stop_requested <- true;
  Mutex.unlock t.m;
  wake t

(* ------------------------------------------------------------------ *)
(* Workers: claim one request per conn in ring order (per-client
   round-robin), answer through the completion queue.  A conn is in
   the ring exactly when it is alive, has pending requests, and no
   worker is already serving it — so responses to one connection stay
   in request order and no client monopolizes the crew.               *)
(* ------------------------------------------------------------------ *)

let worker_loop t =
  let rec loop () =
    Mutex.lock t.m;
    while (not t.halt_workers) && Queue.is_empty t.ring do
      Condition.wait t.work_cv t.m
    done;
    if Queue.is_empty t.ring then Mutex.unlock t.m (* halted, drained *)
    else begin
      let c = Queue.pop t.ring in
      if (not c.alive) || Queue.is_empty c.pending then begin
        Mutex.unlock t.m;
        loop ()
      end
      else begin
        let j = Queue.pop c.pending in
        t.queued <- t.queued - 1;
        c.executing <- true;
        Mutex.unlock t.m;
        let resp, what =
          (* [Service.handle] isolates handler exceptions itself; this
             is the last line of defense — a raise here would kill the
             crew and resurface at [Domain.join], the exact teardown
             bug this server exists to prevent. *)
          try Service.handle t.service j
          with e ->
            ( Protocol.error_response ~id:(Protocol.response_id j)
                (Protocol.error Protocol.Internal (Printexc.to_string e)),
              `Continue )
        in
        let bytes = Frame.encode resp in
        Mutex.lock t.m;
        c.executing <- false;
        if c.alive && not (Queue.is_empty c.pending) then begin
          Queue.push c t.ring;
          Condition.signal t.work_cv
        end;
        Queue.push (c, bytes, what) t.completions;
        Mutex.unlock t.m;
        wake t;
        loop ()
      end
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Event loop                                                          *)
(* ------------------------------------------------------------------ *)

type loop_state = {
  conns : (Unix.file_descr, conn) Hashtbl.t;
  mutable accepting : bool;
  mutable stopping : bool;
  mutable drain_deadline : float;  (* meaningful once stopping *)
  mutable admitted : int;  (* requests admitted, completions not drained *)
}

let queue_out t conn bytes =
  Netbuf.append_string conn.wbuf bytes;
  Metrics.record t.metrics Metrics.wbuf_peak (Netbuf.length conn.wbuf)

let kill t st conn =
  if conn.alive then begin
    Mutex.lock t.m;
    conn.alive <- false;
    (* requests never claimed die with the connection *)
    let dropped = Queue.length conn.pending in
    Queue.clear conn.pending;
    t.queued <- t.queued - dropped;
    Mutex.unlock t.m;
    st.admitted <- st.admitted - dropped;
    Hashtbl.remove st.conns conn.fd;
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end

(* Close once nothing is owed: no admitted request can still produce a
   response and the write buffer is flushed. *)
let maybe_close t st conn =
  if
    conn.alive && conn.close_after_flush && conn.inflight = 0
    && Netbuf.is_empty conn.wbuf
  then kill t st conn

let shed_response t conn j =
  Metrics.incr t.metrics Metrics.sheds;
  let id = Protocol.response_id j in
  queue_out t conn
    (Frame.encode
       (Protocol.error_response ~id
          (Protocol.error Protocol.Overloaded
             (Printf.sprintf
                "load shed: %d requests in flight on this connection (cap %d), \
                 %d queued server-wide (cap %d)"
                conn.inflight t.max_pipeline t.queued t.max_queue))))

let admit t st conn j =
  Mutex.lock t.m;
  let global_full = t.queued >= t.max_queue in
  if global_full || conn.inflight >= t.max_pipeline then begin
    Mutex.unlock t.m;
    shed_response t conn j
  end
  else begin
    conn.inflight <- conn.inflight + 1;
    st.admitted <- st.admitted + 1;
    Queue.push j conn.pending;
    t.queued <- t.queued + 1;
    Metrics.record t.metrics Metrics.queue_peak t.queued;
    if (not conn.executing) && Queue.length conn.pending = 1 then begin
      Queue.push conn t.ring;
      Condition.signal t.work_cv
    end;
    Mutex.unlock t.m
  end

let rec drain_decoder t st conn =
  if conn.read_open then
    match Frame.next conn.decoder with
    | None -> ()
    | Some (Frame.Frame j) ->
      admit t st conn j;
      drain_decoder t st conn
    | Some (Frame.Malformed msg) ->
      queue_out t conn
        (Frame.encode
           (Protocol.error_response ~id:None
              (Protocol.error Protocol.Malformed_frame
                 ("bad frame payload: " ^ msg))));
      drain_decoder t st conn
    | Some (Frame.Oversized n) ->
      queue_out t conn
        (Frame.encode
           (Protocol.error_response ~id:None
              (Protocol.error Protocol.Oversized_frame
                 (Printf.sprintf "frame of %d bytes exceeds the %d-byte cap" n
                    t.max_frame))));
      (* the decoder is poisoned: stop reading, answer, close *)
      conn.read_open <- false;
      conn.close_after_flush <- true

let read_conn t st conn rbuf =
  match Unix.read conn.fd rbuf 0 (Bytes.length rbuf) with
  | 0 ->
    (* EOF; anything already admitted still gets flushed *)
    conn.read_open <- false;
    conn.close_after_flush <- true;
    maybe_close t st conn
  | n ->
    Frame.feed_sub conn.decoder rbuf 0 n;
    drain_decoder t st conn
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
    ()
  | exception Unix.Unix_error (_, _, _) ->
    (* ECONNRESET and friends: the peer is gone *)
    kill t st conn

let write_conn t st conn =
  let buf, off, len = Netbuf.peek conn.wbuf in
  if len > 0 then begin
    match Unix.write conn.fd buf off len with
    | n ->
      Netbuf.consume conn.wbuf n;
      maybe_close t st conn
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      ()  (* still in the write set; retried next iteration *)
    | exception Unix.Unix_error (_, _, _) ->
      (* EPIPE/ECONNRESET/EBADF: a dead client is a closed connection,
         never an escaped exception *)
      kill t st conn
  end

let rec accept_all t st =
  if st.accepting then
    match Unix.accept ~cloexec:true t.listen_fd with
    | fd, _ ->
      Unix.set_nonblock fd;
      Hashtbl.replace st.conns fd
        {
          fd;
          decoder = Frame.create ~max_frame:t.max_frame ();
          wbuf = Netbuf.create ();
          inflight = 0;
          read_open = true;
          close_after_flush = false;
          pending = Queue.create ();
          executing = false;
          alive = true;
        };
      accept_all t st
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
      accept_all t st
    | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
      ()  (* descriptor pressure: let the loop retry after some close *)
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
      st.accepting <- false

let initiate_stop t st =
  if not st.stopping then begin
    st.stopping <- true;
    st.drain_deadline <- Unix.gettimeofday () +. t.drain_timeout;
    if st.accepting then begin
      st.accepting <- false;
      try Unix.close t.listen_fd with Unix.Unix_error _ -> ()
    end;
    (* no new requests; flush what is owed, then close every conn *)
    Hashtbl.iter
      (fun _ conn ->
        conn.read_open <- false;
        conn.close_after_flush <- true)
      st.conns;
    (* iterate over a snapshot: [maybe_close] removes from the table *)
    let snapshot = Hashtbl.fold (fun _ c acc -> c :: acc) st.conns [] in
    List.iter (fun conn -> maybe_close t st conn) snapshot
  end

let drain_wake_pipe t rbuf =
  let rec go () =
    match Unix.read t.wake_r rbuf 0 (Bytes.length rbuf) with
    | 0 -> ()
    | _ -> go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let drain_completions t st =
  Mutex.lock t.m;
  let batch = Queue.create () in
  Queue.transfer t.completions batch;
  Mutex.unlock t.m;
  let stop = ref false in
  Queue.iter
    (fun (conn, bytes, what) ->
      st.admitted <- st.admitted - 1;
      if conn.alive then begin
        conn.inflight <- conn.inflight - 1;
        queue_out t conn bytes;
        maybe_close t st conn
      end;
      if what = `Shutdown then stop := true)
    batch;
  if !stop then initiate_stop t st

let run t =
  (* a peer closing mid-write must surface as EPIPE, not kill us *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let rbuf = Bytes.create 8192 in
  (* The worker crew rides the existing domain pool: one long-lived
     job whose chunks *are* the worker loops, so the pool's spawned
     domains serve requests for the server's lifetime and the barrier
     closes exactly when the crew is told to halt. *)
  let crew =
    Domain.spawn (fun () ->
        ignore
          (Domain_pool.run t.pool ~chunks:(Domain_pool.size t.pool) (fun _ ->
               worker_loop t)))
  in
  let st =
    {
      conns = Hashtbl.create 64;
      accepting = true;
      stopping = false;
      drain_deadline = infinity;
      admitted = 0;
    }
  in
  let finished () =
    st.stopping && st.admitted = 0 && Hashtbl.length st.conns = 0
  in
  while not (finished ()) do
    Mutex.lock t.m;
    let stop_asked = t.stop_requested in
    Mutex.unlock t.m;
    if stop_asked then initiate_stop t st;
    if not (finished ()) then begin
      let reads =
        t.wake_r
        :: (if st.accepting then [ t.listen_fd ] else [])
        @ Hashtbl.fold
            (fun fd conn acc -> if conn.read_open then fd :: acc else acc)
            st.conns []
      in
      let writes =
        Hashtbl.fold
          (fun fd conn acc ->
            if not (Netbuf.is_empty conn.wbuf) then fd :: acc else acc)
          st.conns []
      in
      let timeout =
        if st.stopping then
          Stdlib.max 0.01 (Stdlib.min 0.1 (st.drain_deadline -. Unix.gettimeofday ()))
        else -1.0
      in
      let readable, writable, _ =
        try Unix.select reads writes [] timeout
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      if List.memq t.wake_r readable then drain_wake_pipe t rbuf;
      drain_completions t st;
      List.iter
        (fun fd ->
          match Hashtbl.find_opt st.conns fd with
          | Some conn -> write_conn t st conn
          | None -> ())
        writable;
      List.iter
        (fun fd ->
          if fd != t.wake_r && fd != t.listen_fd then
            match Hashtbl.find_opt st.conns fd with
            | Some conn -> if conn.read_open then read_conn t st conn rbuf
            | None -> ())
        readable;
      if st.accepting && List.memq t.listen_fd readable then accept_all t st;
      (* a client that never reads must not wedge shutdown *)
      if st.stopping && Unix.gettimeofday () > st.drain_deadline then begin
        let snapshot = Hashtbl.fold (fun _ c acc -> c :: acc) st.conns [] in
        List.iter (fun conn -> kill t st conn) snapshot
      end
    end
  done;
  if st.accepting then begin
    st.accepting <- false;
    try Unix.close t.listen_fd with Unix.Unix_error _ -> ()
  end;
  (* halt the crew, close the wake pipe under the lock so a late
     [shutdown] from another domain never writes into a recycled fd *)
  Mutex.lock t.m;
  t.halt_workers <- true;
  t.wake_open <- false;
  Condition.broadcast t.work_cv;
  Mutex.unlock t.m;
  Domain.join crew;
  Domain_pool.shutdown t.pool;
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
  Service.stop t.service;
  try if Sys.file_exists t.socket then Sys.remove t.socket
  with Sys_error _ -> ()
