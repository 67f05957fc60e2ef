(* The event-driven TCP front end: one loop domain owning every
   socket, plus one executor domain per shard owning that shard's
   {!Service.t}.

   The loop accepts, reads, frames protocol lines, and flushes
   responses, all non-blocking; evaluation is handed to the document's
   shard executor and the response posted back to the loop.  Each
   connection keeps a FIFO of response slots, one per request in
   submission order, and only the completed prefix is ever written —
   pipelined responses come back in request order even when a slow
   query is overtaken by a fast one, and a partial write never
   interleaves two responses.

   Identical in-flight lookups (same verb, document, query and
   effective deadline) coalesce through a {!Sxsi_evloop.Single_flight}
   table at submission time: the first becomes the leader and
   evaluates once, the rest attach and receive the leader's response
   verbatim.  A LOAD or EVICT seals the document's in-flight entries
   first, so coalescing never crosses a mutation.

   Deadlines are charged from submission: the executor measures how
   long the request sat in its queue and passes it to the service as
   [elapsed_ns], so a request that queued past its deadline fails
   before doing any work. *)

module Counter = Sxsi_obs.Counter
module Clock = Sxsi_obs.Clock
module J = Sxsi_obs.Journal
module Poll = Sxsi_evloop.Poll
module Netbuf = Sxsi_evloop.Netbuf
module Loop = Sxsi_evloop.Loop
module Single_flight = Sxsi_evloop.Single_flight

let n_accept = J.name "evloop/accept"
let n_flush = J.name "evloop/flush"
let n_coalesce = J.name "evloop/coalesce"
let n_idle = J.name "evloop/idle_close"
let n_shed = J.name "evloop/shed"
let n_exec_queue = J.name "evloop/exec_queue"
let n_exec_idle = J.name "evloop/exec_idle"

let default_high_water = 256 * 1024
let default_max_conns = 1024
let read_chunk = 16 * 1024
let shed_retry_after_ms = 100

(* ------------------------------------------------------------------ *)
(* Shard executors                                                      *)
(* ------------------------------------------------------------------ *)

(* One domain per shard, fed through a blocking queue.  Jobs enqueued
   before [close] still run, so shutdown drains the queue. *)
type exec = {
  jobs : (unit -> unit) Queue.t;
  em : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool;
  jobs_done : Counter.t;
  busy_ns : Counter.t;   (* wall time spent inside jobs *)
}

let exec_create () =
  {
    jobs = Queue.create ();
    em = Mutex.create ();
    nonempty = Condition.create ();
    closed = false;
    jobs_done = Counter.create ();
    busy_ns = Counter.create ();
  }

let exec_submit e job =
  Mutex.protect e.em (fun () ->
      Queue.push job e.jobs;
      Condition.signal e.nonempty)

let exec_depth e = Mutex.protect e.em (fun () -> Queue.length e.jobs)

let exec_close e =
  Mutex.protect e.em (fun () ->
      e.closed <- true;
      Condition.broadcast e.nonempty)

let exec_run e =
  let pop () =
    Mutex.protect e.em (fun () ->
        let rec wait () =
          if not (Queue.is_empty e.jobs) then Some (Queue.pop e.jobs)
          else if e.closed then None
          else begin
            (* spanned so an idle executor profiles as evloop/exec_idle
               rather than unattributed time *)
            J.begin_span J.Evloop n_exec_idle ();
            Condition.wait e.nonempty e.em;
            J.end_span J.Evloop n_exec_idle ();
            wait ()
          end
        in
        wait ())
  in
  let rec loop () =
    match pop () with
    | None -> ()
    | Some job ->
      let t0 = Clock.now_ns () in
      job ();
      Counter.add e.busy_ns (Clock.since t0);
      Counter.incr e.jobs_done;
      loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Connections                                                          *)
(* ------------------------------------------------------------------ *)

(* A response slot: one per submitted request, filled when its
   evaluation completes.  Only the completed prefix of the queue is
   flushed, which is what keeps pipelined responses ordered. *)
type slot = { mutable out : string option }

type conn = {
  fd : Unix.file_descr;
  rbuf : Netbuf.t;
  wbuf : Netbuf.t;
  slots : slot Queue.t;
  mutable draining : bool;           (* discarding an oversized line *)
  mutable deadline_ms : int option;  (* session DEADLINE override *)
  mutable closing : bool;            (* no more reads; close once flushed *)
  mutable closed : bool;
  mutable idle_timer : (unit -> unit) Sxsi_evloop.Wheel.timer option;
  mutable last_ns : int;             (* last read activity *)
}

type t = {
  loop : Loop.t;
  shards : Shards.t;
  execs : exec array;
  sf : waiter Single_flight.t;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  lsock : Unix.file_descr;
  max_line : int;
  high_water : int;
  idle_ms : int;
  max_conns : int;
  sndbuf : int option;
  idle_closed : Counter.t;
  metrics : Metrics.t;  (* the primary shard's, for connection counters *)
}

and waiter = { wc : conn; wslot : slot; wsvc : Service.t }

let close_conn t c =
  if not c.closed then begin
    c.closed <- true;
    (match c.idle_timer with
    | Some tm ->
      Loop.cancel_timer t.loop tm;
      c.idle_timer <- None
    | None -> ());
    Loop.unregister t.loop c.fd;
    Hashtbl.remove t.conns c.fd;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    Counter.incr t.metrics.Metrics.connections_closed
  end

(* Recompute what the connection should be polled for: reads unless it
   is closing or its write buffer is above the high-water mark
   (backpressure: a slow reader stops being read from), writes while
   response bytes are queued. *)
let update_interest t c =
  if not c.closed then begin
    let want_read = (not c.closing) && Netbuf.length c.wbuf < t.high_water in
    let want_write = not (Netbuf.is_empty c.wbuf) in
    Loop.set_interest t.loop c.fd
      ((if want_read then Poll.ev_read else 0)
      lor (if want_write then Poll.ev_write else 0))
  end

let rec move_completed c =
  match Queue.peek_opt c.slots with
  | Some ({ out = Some bytes } as s) ->
    ignore (Queue.pop c.slots : slot);
    s.out <- None;
    Netbuf.add_string c.wbuf bytes;
    move_completed c
  | Some { out = None } | None -> ()

let flush_conn t c =
  if not c.closed then begin
    move_completed c;
    if not (Netbuf.is_empty c.wbuf) then begin
      J.begin_span J.Evloop n_flush ();
      let r = Netbuf.flush_to c.wbuf c.fd in
      (match r with
      | Netbuf.Flushed n | Netbuf.Flush_would_block n -> J.end_span J.Evloop n_flush ~a:n ()
      | Netbuf.Peer_gone -> J.end_span J.Evloop n_flush ());
      match r with
      | Netbuf.Peer_gone -> close_conn t c
      | Netbuf.Flushed _ | Netbuf.Flush_would_block _ -> ()
    end;
    if not c.closed then
      if c.closing && Queue.is_empty c.slots && Netbuf.is_empty c.wbuf then close_conn t c
      else update_interest t c
  end

(* ------------------------------------------------------------------ *)
(* Evaluation and delivery                                              *)
(* ------------------------------------------------------------------ *)

(* Evloop-specific STATS lines, appended to the service's own so the
   coalescing and loop counters are scrapeable over the protocol. *)
let ev_stats_lines t =
  [
    ("ev_shards", string_of_int (Shards.count t.shards));
    ("ev_connections", string_of_int (Hashtbl.length t.conns));
    ("ev_turns", string_of_int (Loop.turns_total t.loop));
    ("ev_wakeups", string_of_int (Loop.wakeups_total t.loop));
    ("ev_timers_fired", string_of_int (Loop.timers_fired_total t.loop));
    ("ev_leaders", string_of_int (Single_flight.leaders_total t.sf));
    ("ev_coalesced", string_of_int (Single_flight.coalesced_total t.sf));
    ("ev_seals", string_of_int (Single_flight.seals_total t.sf));
    ("ev_in_flight", string_of_int (Single_flight.in_flight t.sf));
    ("ev_idle_closed", string_of_int (Counter.get t.idle_closed));
    ( "ev_exec_jobs",
      String.concat ","
        (Array.to_list
           (Array.map (fun e -> string_of_int (Counter.get e.jobs_done)) t.execs)) );
    ( "ev_exec_busy_ms",
      String.concat ","
        (Array.to_list
           (Array.map
              (fun e -> string_of_int (Counter.get e.busy_ns / 1_000_000))
              t.execs)) );
    ( "ev_exec_depth",
      String.concat ","
        (Array.to_list (Array.map (fun e -> string_of_int (exec_depth e)) t.execs)) );
  ]

let give t w bytes =
  if not w.wc.closed then begin
    w.wslot.out <- Some bytes;
    flush_conn t w.wc
  end

(* A coalesced evaluation completed: fan the leader's response out to
   every waiter.  Waiters beyond the leader never reached
   [Service.handle], so account them as requests (and errors, for ERR
   responses) to keep the request rate honest. *)
let deliver_entry t entry resp =
  match Single_flight.complete t.sf entry with
  | [] -> ()
  | leader :: rest ->
    let bytes = Protocol.print_response resp in
    if rest <> [] then J.instant J.Evloop n_coalesce ~a:(List.length rest) ();
    give t leader bytes;
    List.iter
      (fun w ->
        ignore (Service.reject w.wsvc resp : Protocol.response);
        give t w bytes)
      rest

let deliver_one t w ~stats resp =
  let resp =
    if stats then
      match resp with
      | Protocol.Data lines ->
        Protocol.Data (lines @ List.map (fun (k, v) -> k ^ "=" ^ v) (ev_stats_lines t))
      | other -> other
    else resp
  in
  give t w (Protocol.print_response resp)

(* Evaluate one line on its shard's service.  STATS and METRICS under
   real sharding aggregate across every shard instead of reporting one
   shard's view; everything else — including parse errors — is exactly
   [Service.handle_line]. *)
let evaluate t svc parsed ~deadline_ms ~elapsed_ns line =
  let aggregated = Shards.count t.shards > 1 in
  match parsed with
  | Result.Ok Protocol.Stats when aggregated ->
    Service.reject svc
      (Protocol.Data (List.map (fun (k, v) -> k ^ "=" ^ v) (Shards.stats t.shards)))
  | Result.Ok Protocol.Metrics when aggregated ->
    Service.reject svc
      (Protocol.Data
         (List.filter
            (fun l -> l <> "")
            (String.split_on_char '\n' (Shards.metrics_text t.shards))))
  | _ -> (
    try Service.handle_line ?deadline_ms ~elapsed_ns svc line
    with exn ->
      Service.reject svc (Protocol.Err ("internal error: " ^ Printexc.to_string exn)))

(* Submit one request line from [c]: reserve the next response slot,
   update session state, then either attach to an identical in-flight
   evaluation or enqueue a fresh one on the document's shard
   executor. *)
let submit t c line =
  let slot = { out = None } in
  Queue.push slot c.slots;
  let parsed = Protocol.parse_request line in
  (match parsed with
  | Result.Ok (Protocol.Deadline ms) -> c.deadline_ms <- Some ms
  | _ -> ());
  (* seal before dispatch: queries submitted after this mutation must
     not share a pre-mutation evaluation *)
  (match parsed with
  | Result.Ok (Protocol.Load { name; _ }) | Result.Ok (Protocol.Evict name) ->
    Single_flight.seal_group t.sf name
  | _ -> ());
  let shard =
    match parsed with
    | Result.Ok req -> Shards.shard_of_request t.shards req
    | Error _ -> 0
  in
  let svc = Shards.service t.shards shard in
  let exec = t.execs.(shard) in
  let deadline_ms = c.deadline_ms in
  let stats = match parsed with Result.Ok Protocol.Stats -> true | _ -> false in
  let enqueued_ns = Clock.now_ns () in
  let w = { wc = c; wslot = slot; wsvc = svc } in
  let run_leader deliver =
    exec_submit exec (fun () ->
        let elapsed_ns = Clock.since enqueued_ns in
        J.begin_span J.Evloop n_exec_queue ~ts:enqueued_ns ();
        J.end_span J.Evloop n_exec_queue ();
        Service.record_admission_wait svc elapsed_ns;
        let resp = evaluate t svc parsed ~deadline_ms ~elapsed_ns line in
        Loop.post t.loop (fun () -> deliver resp))
  in
  let coalesce_key =
    match parsed with
    | Result.Ok (Protocol.Query { doc; query }) -> Some ("Q", doc, query)
    | Result.Ok (Protocol.Count { doc; query }) -> Some ("C", doc, query)
    | Result.Ok (Protocol.Materialize { doc; query }) -> Some ("M", doc, query)
    | _ -> None
  in
  (match parsed with
  | Result.Ok (Protocol.Profile secs) ->
    (* never blocks an executor domain (a blocked shard executor would
       starve the very load being profiled): snapshot now, let a loop
       timer deliver the window diff when it closes *)
    Sxsi_prof.Prof.ensure_started ();
    let since = Sxsi_prof.Prof.snapshot () in
    let at_ns = enqueued_ns + (secs * 1_000_000_000) in
    ignore
      (Loop.timer_at t.loop ~at_ns (fun () ->
           deliver_one t w ~stats:false
             (Service.reject svc (Service.profile_response since)))
        : (unit -> unit) Sxsi_evloop.Wheel.timer)
  | _ -> (
    match coalesce_key with
    | Some (verb, doc, query) ->
      let eff_dl = match deadline_ms with Some d -> d | None -> -1 in
      let key = Printf.sprintf "%s\x00%s\x00%s\x00%d" verb doc query eff_dl in
      (match Single_flight.join t.sf ~key ~group:doc w with
      | Single_flight.Attached -> ()
      | Single_flight.Leader entry -> run_leader (fun resp -> deliver_entry t entry resp))
    | None -> run_leader (fun resp -> deliver_one t w ~stats resp)));
  (* QUIT answers, then closes: stop reading now, close once the
     pipeline ahead of it (and its own OK) has flushed *)
  match parsed with
  | Result.Ok Protocol.Quit -> c.closing <- true
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Reading and framing                                                  *)
(* ------------------------------------------------------------------ *)

let rec parse_buffered t c =
  if (not c.closed) && not c.closing then
    if c.draining then begin
      if Netbuf.drain_line c.rbuf then begin
        c.draining <- false;
        let resp = Service.reject (Shards.primary t.shards) (Protocol.too_long t.max_line) in
        Queue.push { out = Some (Protocol.print_response resp) } c.slots;
        parse_buffered t c
      end
      (* else: newline not seen yet, keep draining on the next read *)
    end
    else
      match Netbuf.next_line c.rbuf ~max_line:t.max_line with
      | Netbuf.Line l ->
        submit t c (Protocol.chomp_cr l);
        parse_buffered t c
      | Netbuf.Too_long ->
        c.draining <- true;
        parse_buffered t c
      | Netbuf.More -> ()

let on_readable t c =
  match Netbuf.fill_from c.rbuf c.fd ~max:read_chunk with
  | Netbuf.Filled _ ->
    c.last_ns <- Clock.now_ns ();
    parse_buffered t c;
    flush_conn t c
  | Netbuf.Fill_would_block -> ()
  | Netbuf.Eof ->
    (* half-close: frame what was buffered; a trailing unterminated
       line still gets an answer (EOF counts as end-of-line, as in the
       blocking [Session] reader) *)
    parse_buffered t c;
    if (not c.closing) && (not c.draining) && Netbuf.length c.rbuf > 0 then begin
      let tail = Netbuf.contents c.rbuf in
      Netbuf.clear c.rbuf;
      submit t c (Protocol.chomp_cr tail)
    end;
    c.closing <- true;
    c.draining <- false;
    if Queue.is_empty c.slots && Netbuf.is_empty c.wbuf then close_conn t c
    else flush_conn t c
  | Netbuf.Closed_by_peer -> close_conn t c

let on_conn_event t c mask =
  if not c.closed then begin
    if mask land Poll.ev_error <> 0 then close_conn t c
    else begin
      if mask land Poll.ev_write <> 0 then flush_conn t c;
      if (not c.closed) && mask land Poll.ev_read <> 0 then on_readable t c
    end
  end

(* ------------------------------------------------------------------ *)
(* Idle timeout                                                         *)
(* ------------------------------------------------------------------ *)

(* Lazy re-arm: the timer fires at [last activity + idle], and if
   activity happened meanwhile (or a response is still in flight) it
   pushes itself forward instead of being rescheduled on every read. *)
let rec idle_fire t c () =
  c.idle_timer <- None;
  if not c.closed then begin
    let now = Clock.now_ns () in
    let deadline = c.last_ns + (t.idle_ms * 1_000_000) in
    let busy = (not (Queue.is_empty c.slots)) || not (Netbuf.is_empty c.wbuf) in
    if now >= deadline && (not busy) && not c.closing then begin
      Counter.incr t.idle_closed;
      J.instant J.Evloop n_idle ();
      let resp = Protocol.err "IDLE" (Printf.sprintf "idle for %dms; closing" t.idle_ms) in
      Queue.push { out = Some (Protocol.print_response resp) } c.slots;
      c.closing <- true;
      flush_conn t c
    end
    else
      let at_ns = if now >= deadline then now + (t.idle_ms * 1_000_000) else deadline in
      c.idle_timer <- Some (Loop.timer_at t.loop ~at_ns (idle_fire t c))
  end

let arm_idle t c =
  if t.idle_ms > 0 then
    c.idle_timer <-
      Some (Loop.timer_at t.loop ~at_ns:(c.last_ns + (t.idle_ms * 1_000_000)) (idle_fire t c))

(* ------------------------------------------------------------------ *)
(* Accepting                                                            *)
(* ------------------------------------------------------------------ *)

let shed t fd =
  Counter.incr t.metrics.Metrics.connections_shed;
  J.instant J.Evloop n_shed ();
  let resp =
    Service.reject (Shards.primary t.shards)
      (Protocol.err ~retry_after_ms:shed_retry_after_ms "SHED"
         "server busy: connection limit")
  in
  let bytes = Protocol.print_response resp in
  (try ignore (Unix.write_substring fd bytes 0 (String.length bytes) : int)
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_conn t fd =
  Unix.set_nonblock fd;
  (match t.sndbuf with
  | Some n -> ( try Unix.setsockopt_int fd Unix.SO_SNDBUF n with Unix.Unix_error _ -> ())
  | None -> ());
  let c =
    {
      fd;
      rbuf = Netbuf.create ();
      wbuf = Netbuf.create ();
      slots = Queue.create ();
      draining = false;
      deadline_ms = None;
      closing = false;
      closed = false;
      idle_timer = None;
      last_ns = Clock.now_ns ();
    }
  in
  Hashtbl.replace t.conns fd c;
  Loop.register t.loop fd ~interest:Poll.ev_read ~on_event:(on_conn_event t c);
  arm_idle t c;
  Counter.incr t.metrics.Metrics.connections_opened;
  J.instant J.Evloop n_accept ()

let on_acceptable t _mask =
  (* bounded accepts per turn so one burst cannot starve live
     connections *)
  let rec loop n =
    if n > 0 then
      match Unix.accept ~cloexec:true t.lsock with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> loop (n - 1)
      | fd, _ ->
        if Hashtbl.length t.conns >= t.max_conns then shed t fd else accept_conn t fd;
        loop (n - 1)
  in
  loop 64

(* ------------------------------------------------------------------ *)
(* Serve                                                                *)
(* ------------------------------------------------------------------ *)

let register_metrics t =
  let primary = Shards.primary t.shards in
  (* a service can only register a given exposition name once; a
     second serve over the same service keeps the first wiring *)
  try
    Service.register_exposition primary (fun e ->
        let counter = Sxsi_obs.Exposition.register_counter e in
        counter ~help:"Event-loop turns." ~name:"sxsi_evloop_turns_total"
          (Loop.turns_counter t.loop);
        counter ~help:"Cross-thread event-loop wakeups."
          ~name:"sxsi_evloop_wakeups_total"
          (Loop.wakeups_counter t.loop);
        counter ~help:"Single-flight evaluations started."
          ~name:"sxsi_evloop_leaders_total"
          (Single_flight.leaders_counter t.sf);
        counter ~help:"Requests coalesced onto an in-flight evaluation."
          ~name:"sxsi_evloop_coalesced_total"
          (Single_flight.coalesced_counter t.sf);
        counter ~help:"Connections closed by the idle timeout."
          ~name:"sxsi_evloop_idle_closed_total" t.idle_closed;
        let gauge = Sxsi_obs.Exposition.register_gauge e in
        gauge ~help:"Open connections." ~name:"sxsi_evloop_connections" (fun () ->
            float_of_int (Hashtbl.length t.conns));
        gauge ~help:"Shards." ~name:"sxsi_evloop_shards" (fun () ->
            float_of_int (Shards.count t.shards));
        let multi = Sxsi_obs.Exposition.register_multi_gauge e in
        let per_shard f () =
          Array.to_list
            (Array.mapi (fun i ex -> ([ ("shard", string_of_int i) ], f ex)) t.execs)
        in
        multi ~help:"Jobs completed per shard executor."
          ~name:"sxsi_evloop_exec_jobs_total"
          (per_shard (fun ex -> float_of_int (Counter.get ex.jobs_done)));
        multi ~help:"Seconds each shard executor spent running jobs."
          ~name:"sxsi_evloop_exec_busy_seconds_total"
          (per_shard (fun ex -> float_of_int (Counter.get ex.busy_ns) /. 1e9));
        multi ~help:"Queued jobs per shard executor."
          ~name:"sxsi_evloop_exec_queue_depth"
          (per_shard (fun ex -> float_of_int (exec_depth ex))))
  with Invalid_argument _ -> ()

let serve ?(host = "127.0.0.1") ?(backlog = 64) ?(max_line = Protocol.default_max_line)
    ?(high_water = default_high_water) ?(idle_ms = 0) ?(max_conns = default_max_conns)
    ?sndbuf ?(on_listen = fun _ -> ()) ?(stop = fun () -> false) ~port shards =
  let lsock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  let loop = Loop.create () in
  let nshards = Shards.count shards in
  let t =
    {
      loop;
      shards;
      execs = Array.init nshards (fun _ -> exec_create ());
      sf = Single_flight.create ();
      conns = Hashtbl.create 64;
      lsock;
      max_line;
      high_water = max 1 high_water;
      idle_ms;
      max_conns = max 1 max_conns;
      sndbuf;
      idle_closed = Counter.create ();
      metrics = Service.service_metrics (Shards.primary shards);
    }
  in
  register_metrics t;
  let domains =
    Array.map
      (fun e ->
        Domain.spawn (fun () ->
            Fun.protect ~finally:J.retire_slot (fun () -> exec_run e)))
      t.execs
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close lsock with Unix.Unix_error _ -> ());
      (* close every live connection, then drain and join the
         executors: completions they post after this never run, which
         is fine — their connections are gone *)
      let live = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
      List.iter (close_conn t) live;
      Array.iter exec_close t.execs;
      Array.iter Domain.join domains;
      Loop.close loop)
    (fun () ->
      Unix.setsockopt lsock Unix.SO_REUSEADDR true;
      Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      Unix.listen lsock backlog;
      Unix.set_nonblock lsock;
      (match Unix.getsockname lsock with
      | Unix.ADDR_INET (_, p) -> on_listen p
      | _ -> ());
      Loop.register loop lsock ~interest:Poll.ev_read ~on_event:(on_acceptable t);
      Loop.run ~stop loop)
