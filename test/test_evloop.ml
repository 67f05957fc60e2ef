(* Event-driven front-end tests: the evloop building blocks (netbuf
   framing, the timer wheel, the poll table, single-flight), the loop
   itself, and the Ev_server end to end — pipelined response ordering,
   partial writes under a tiny SO_SNDBUF, the single-flight stampede
   and error fan-out, the idle timeout, and connection churn. *)

open Sxsi_evloop
module Service = Sxsi_service.Service
module Shards = Sxsi_service.Shards
module Ev_server = Sxsi_service.Ev_server
module Protocol = Sxsi_service.Protocol
module Failpoint = Sxsi_qos.Failpoint

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Netbuf                                                               *)
(* ------------------------------------------------------------------ *)

let test_netbuf_lines () =
  let b = Netbuf.create ~initial:16 () in
  Netbuf.add_string b "COUNT d //a\nQUE";
  (match Netbuf.next_line b ~max_line:64 with
  | Netbuf.Line l -> Alcotest.(check string) "first line" "COUNT d //a" l
  | _ -> Alcotest.fail "expected a line");
  Alcotest.(check bool) "partial line pends" true
    (Netbuf.next_line b ~max_line:64 = Netbuf.More);
  Netbuf.add_string b "RY d //b\n";
  (match Netbuf.next_line b ~max_line:64 with
  | Netbuf.Line l -> Alcotest.(check string) "spliced line" "QUERY d //b" l
  | _ -> Alcotest.fail "expected the spliced line");
  Alcotest.(check bool) "drained" true (Netbuf.is_empty b)

let test_netbuf_too_long () =
  let b = Netbuf.create ~initial:16 () in
  (* an oversized line: Too_long consumes nothing, drain_line discards
     exactly through its newline, the next request survives *)
  Netbuf.add_string b (String.make 100 'x');
  Alcotest.(check bool) "oversized without newline" true
    (Netbuf.next_line b ~max_line:8 = Netbuf.Too_long);
  Alcotest.(check bool) "nothing buffered consumed yet" true (Netbuf.length b = 100);
  Alcotest.(check bool) "no newline yet: keep draining" false (Netbuf.drain_line b);
  Netbuf.add_string b "tail\nCOUNT d //a\n";
  Alcotest.(check bool) "drained through the newline" true (Netbuf.drain_line b);
  (match Netbuf.next_line b ~max_line:64 with
  | Netbuf.Line l -> Alcotest.(check string) "next request intact" "COUNT d //a" l
  | _ -> Alcotest.fail "expected the surviving request")

let prop_netbuf_chunked =
  (* however the byte stream is chunked, the framed lines are exactly
     the split of the stream *)
  qtest "netbuf framing is chunking-independent"
    QCheck2.Gen.(list (string_size ~gen:(char_range 'a' 'e') (int_range 0 5)))
    (fun chunks ->
      let stream = String.concat "\n" chunks ^ "\n" in
      let expected = String.split_on_char '\n' stream in
      let expected = List.filteri (fun i _ -> i < List.length expected - 1) expected in
      let b = Netbuf.create ~initial:4 () in
      let got = ref [] in
      String.iter
        (fun ch ->
          Netbuf.add_string b (String.make 1 ch);
          let rec drain () =
            match Netbuf.next_line b ~max_line:1024 with
            | Netbuf.Line l ->
              got := l :: !got;
              drain ()
            | Netbuf.More | Netbuf.Too_long -> ()
          in
          drain ())
        stream;
      List.rev !got = expected)

(* ------------------------------------------------------------------ *)
(* Timer wheel                                                          *)
(* ------------------------------------------------------------------ *)

let ms n = n * 1_000_000

let test_wheel_fires_in_order () =
  let w = Wheel.create ~tick_ms:10 ~slots:8 ~now_ns:0 () in
  ignore (Wheel.schedule w ~at_ns:(ms 35) "b" : string Wheel.timer);
  ignore (Wheel.schedule w ~at_ns:(ms 5) "a" : string Wheel.timer);
  (* further than one revolution (8 slots x 10ms) away *)
  ignore (Wheel.schedule w ~at_ns:(ms 250) "c" : string Wheel.timer);
  Alcotest.(check int) "three pending" 3 (Wheel.pending w);
  Alcotest.(check (list string)) "nothing due yet" [] (Wheel.advance w ~now_ns:(ms 1));
  Alcotest.(check (list string)) "a fires" [ "a" ] (Wheel.advance w ~now_ns:(ms 12));
  Alcotest.(check (list string)) "b fires" [ "b" ] (Wheel.advance w ~now_ns:(ms 40));
  (* c parked for a later revolution despite sharing a bucket range *)
  Alcotest.(check (list string)) "c not early" [] (Wheel.advance w ~now_ns:(ms 100));
  Alcotest.(check (list string)) "c fires on its round" [ "c" ]
    (Wheel.advance w ~now_ns:(ms 260));
  Alcotest.(check int) "empty" 0 (Wheel.pending w)

let test_wheel_cancel_and_delay () =
  let w = Wheel.create ~tick_ms:10 ~slots:8 ~now_ns:0 () in
  let t1 = Wheel.schedule w ~at_ns:(ms 30) "x" in
  ignore (Wheel.schedule w ~at_ns:(ms 70) "y" : string Wheel.timer);
  (match Wheel.next_delay_ms w ~now_ns:0 with
  | Some d -> Alcotest.(check bool) "delay bounded by first timer" true (d <= 30)
  | None -> Alcotest.fail "expected a delay");
  Wheel.cancel w t1;
  Wheel.cancel w t1;
  Alcotest.(check int) "cancel is idempotent" 1 (Wheel.pending w);
  Alcotest.(check (list string)) "cancelled does not fire" []
    (Wheel.advance w ~now_ns:(ms 40));
  Alcotest.(check (list string)) "survivor fires" [ "y" ]
    (Wheel.advance w ~now_ns:(ms 80));
  Alcotest.(check (option int)) "no timers, no delay" None
    (Wheel.next_delay_ms w ~now_ns:(ms 80))

(* ------------------------------------------------------------------ *)
(* Poll                                                                 *)
(* ------------------------------------------------------------------ *)

let test_poll_backend () =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () ->
      let t = Poll.create () in
      Poll.set t r Poll.ev_read;
      Poll.set t w Poll.ev_write;
      Alcotest.(check int) "two registered" 2 (Poll.cardinal t);
      (* the empty pipe: only the write side is ready *)
      let fired = ref [] in
      let n = Poll.wait t ~timeout_ms:100 (fun fd re -> fired := (fd, re) :: !fired) in
      Alcotest.(check int) "write side ready" 1 n;
      (match !fired with
      | [ (fd, re) ] ->
        Alcotest.(check bool) "it is the writer" true (fd = w);
        Alcotest.(check bool) "writable bit" true (re land Poll.ev_write <> 0)
      | _ -> Alcotest.fail "expected exactly the writer");
      (* a byte makes the read side ready too *)
      ignore (Unix.write_substring w "!" 0 1 : int);
      let readable = ref false in
      let n =
        Poll.wait t ~timeout_ms:100 (fun fd re ->
            if fd = r && re land Poll.ev_read <> 0 then readable := true)
      in
      Alcotest.(check int) "both ready" 2 n;
      Alcotest.(check bool) "read side ready" true !readable;
      Poll.remove t w;
      let n = Poll.wait t ~timeout_ms:100 (fun _ _ -> ()) in
      Alcotest.(check int) "removed fd does not fire" 1 n)


(* ------------------------------------------------------------------ *)
(* Single-flight                                                        *)
(* ------------------------------------------------------------------ *)

let test_single_flight () =
  let t = Single_flight.create () in
  let e =
    match Single_flight.join t ~key:"k" ~group:"d" 1 with
    | Single_flight.Leader e -> e
    | Single_flight.Attached -> Alcotest.fail "first joiner must lead"
  in
  Alcotest.(check bool) "second attaches" true
    (Single_flight.join t ~key:"k" ~group:"d" 2 = Single_flight.Attached);
  Alcotest.(check bool) "third attaches" true
    (Single_flight.join t ~key:"k" ~group:"d" 3 = Single_flight.Attached);
  Alcotest.(check int) "one in flight" 1 (Single_flight.in_flight t);
  Alcotest.(check (list int)) "join order, leader first" [ 1; 2; 3 ]
    (Single_flight.complete t e);
  Alcotest.(check int) "completed" 0 (Single_flight.in_flight t);
  Alcotest.(check int) "one leader" 1 (Single_flight.leaders_total t);
  Alcotest.(check int) "two coalesced" 2 (Single_flight.coalesced_total t)

let test_single_flight_seal () =
  let t = Single_flight.create () in
  let e1 =
    match Single_flight.join t ~key:"k" ~group:"d" 1 with
    | Single_flight.Leader e -> e
    | Single_flight.Attached -> Alcotest.fail "lead"
  in
  ignore (Single_flight.join t ~key:"k" ~group:"d" 2);
  (* a mutation of the group: existing waiters keep their fan-out, new
     joiners start a fresh evaluation *)
  Single_flight.seal_group t "d";
  let e2 =
    match Single_flight.join t ~key:"k" ~group:"d" 3 with
    | Single_flight.Leader e -> e
    | Single_flight.Attached -> Alcotest.fail "post-seal joiner must lead"
  in
  Alcotest.(check (list int)) "sealed entry still fans out" [ 1; 2 ]
    (Single_flight.complete t e1);
  Alcotest.(check (list int)) "fresh entry independent" [ 3 ]
    (Single_flight.complete t e2);
  Alcotest.(check int) "seal counted" 1 (Single_flight.seals_total t)

(* ------------------------------------------------------------------ *)
(* Loop                                                                 *)
(* ------------------------------------------------------------------ *)

let test_loop_post_and_timer () =
  let l = Loop.create () in
  Fun.protect
    ~finally:(fun () -> Loop.close l)
    (fun () ->
      let hits = ref [] in
      let at = Sxsi_obs.Clock.now_ns () + ms 30 in
      ignore (Loop.timer_at l ~at_ns:at (fun () -> hits := "timer" :: !hits));
      (* posted from another thread while the loop runs; the loop must
         wake out of poll to run it *)
      let poster =
        Thread.create
          (fun () ->
            Thread.delay 0.01;
            Loop.post l (fun () -> hits := "posted" :: !hits))
          ()
      in
      let deadline = Unix.gettimeofday () +. 5.0 in
      Loop.run
        ~stop:(fun () -> List.length !hits >= 2 || Unix.gettimeofday () > deadline)
        l;
      Thread.join poster;
      Alcotest.(check bool) "timer fired" true (List.mem "timer" !hits);
      Alcotest.(check bool) "posted closure ran" true (List.mem "posted" !hits);
      Alcotest.(check bool) "a cross-thread wakeup happened" true
        (Loop.wakeups_total l >= 1))

(* ------------------------------------------------------------------ *)
(* Ev_server end to end                                                 *)
(* ------------------------------------------------------------------ *)

let small_doc tag n =
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("<" ^ tag ^ ">");
  for i = 1 to n do
    Buffer.add_string buf (Printf.sprintf "<item n=\"%d\">payload %d</item>" i i)
  done;
  Buffer.add_string buf ("</" ^ tag ^ ">");
  Sxsi_xml.Document.of_xml (Buffer.contents buf)

let with_ev_server ?idle_ms ?sndbuf ?shards svc body =
  let shards = match shards with Some sh -> sh | None -> Shards.of_service svc in
  let stop = Atomic.make false in
  let port = Atomic.make 0 in
  let server =
    Domain.spawn (fun () ->
        Ev_server.serve ?idle_ms ?sndbuf ~port:0
          ~on_listen:(fun p -> Atomic.set port p)
          ~stop:(fun () -> Atomic.get stop)
          shards)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join server)
    (fun () ->
      let deadline = Unix.gettimeofday () +. 5.0 in
      while Atomic.get port = 0 && Unix.gettimeofday () < deadline do
        Domain.cpu_relax ()
      done;
      Alcotest.(check bool) "server came up" true (Atomic.get port <> 0);
      body (Atomic.get port))

let connect port = Unix.open_connection (Unix.ADDR_INET (Unix.inet_addr_loopback, port))

let read_response ic =
  match
    Protocol.read_response (fun () ->
        match input_line ic with
        | line -> Some line
        | exception End_of_file -> None)
  with
  | Ok r -> r
  | Error e -> Alcotest.fail ("client read: " ^ e)

let exchange ic oc line =
  output_string oc (line ^ "\n");
  flush oc;
  read_response ic

let stat_of_lines lines key =
  let prefix = key ^ "=" in
  let n = String.length prefix in
  List.find_map
    (fun l ->
      if String.length l > n && String.sub l 0 n = prefix then
        Some (String.sub l n (String.length l - n))
      else None)
    lines

let proto_stat ic oc key =
  match exchange ic oc "STATS" with
  | Protocol.Data lines -> (
    match stat_of_lines lines key with
    | Some v -> v
    | None -> Alcotest.fail ("STATS missing key " ^ key))
  | r -> Alcotest.fail ("STATS: " ^ Protocol.print_response r)

(* Pipelining: many requests in one write come back as exactly their
   responses, in request order. *)
let test_pipelining_order () =
  let svc = Service.create () in
  Service.add_document svc "d" (small_doc "root" 7);
  with_ev_server svc (fun port ->
      let ic, oc = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.shutdown_connection ic with _ -> ())
        (fun () ->
          output_string oc
            "COUNT d //item\nCOUNT d /root\nNOSUCHVERB x\nCOUNT d //item\nQUIT\n";
          flush oc;
          (match read_response ic with
          | Protocol.Ok [ "7" ] -> ()
          | r -> Alcotest.fail ("1st: " ^ Protocol.print_response r));
          (match read_response ic with
          | Protocol.Ok [ "1" ] -> ()
          | r -> Alcotest.fail ("2nd: " ^ Protocol.print_response r));
          (match read_response ic with
          | Protocol.Err _ -> ()
          | r -> Alcotest.fail ("3rd should be ERR: " ^ Protocol.print_response r));
          (match read_response ic with
          | Protocol.Ok [ "7" ] -> ()
          | r -> Alcotest.fail ("4th: " ^ Protocol.print_response r));
          (match read_response ic with
          | Protocol.Ok [ "bye" ] -> ()
          | r -> Alcotest.fail ("QUIT: " ^ Protocol.print_response r));
          Alcotest.(check bool) "closed after QUIT" true
            (match input_line ic with
            | _ -> false
            | exception End_of_file -> true)))

(* Partial writes: with a tiny SO_SNDBUF a large MATERIALIZE cannot be
   written in one go; the response must survive EWOULDBLOCK intact and
   the pipelined follow-up must come after it, never interleaved. *)
let test_partial_write_large_response () =
  let items = 3000 in
  let svc = Service.create () in
  Service.add_document svc "d" (small_doc "root" items);
  with_ev_server ~sndbuf:4096 svc (fun port ->
      let ic, oc = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.shutdown_connection ic with _ -> ())
        (fun () ->
          output_string oc "MATERIALIZE d //item\nCOUNT d //item\nQUIT\n";
          flush oc;
          (* let the server hit the send-buffer wall before we drain *)
          Unix.sleepf 0.1;
          (match read_response ic with
          | Protocol.Data lines ->
            Alcotest.(check int) "every materialized item arrived" items
              (List.length lines);
            List.iter
              (fun l ->
                if String.length l < 5 || String.sub l 0 5 <> "<item" then
                  Alcotest.failf "corrupted materialize line: %s" l)
              lines
          | r -> Alcotest.fail ("MATERIALIZE: " ^ Protocol.print_response r));
          (match read_response ic with
          | Protocol.Ok [ n ] ->
            Alcotest.(check string) "pipelined COUNT after the big response"
              (string_of_int items) n
          | r -> Alcotest.fail ("COUNT: " ^ Protocol.print_response r));
          match read_response ic with
          | Protocol.Ok [ "bye" ] -> ()
          | r -> Alcotest.fail ("QUIT: " ^ Protocol.print_response r)))

(* The stampede: 64 connections fire the identical cold query while
   the (failpoint-delayed) leader is still evaluating.  Exactly one
   engine evaluation; byte-identical responses everywhere. *)
let test_single_flight_stampede () =
  Fun.protect ~finally:Failpoint.deactivate_all (fun () ->
      let svc = Service.create () in
      Service.add_document svc "d" (small_doc "root" 9);
      with_ev_server svc (fun port ->
          let clients = 64 in
          Failpoint.activate "engine.eval" (Failpoint.Delay_ms 500);
          let conns = Array.init clients (fun _ -> connect port) in
          Fun.protect
            ~finally:(fun () ->
              Array.iter
                (fun (ic, _) -> try Unix.shutdown_connection ic with _ -> ())
                conns)
            (fun () ->
              Array.iter
                (fun (_, oc) ->
                  output_string oc "COUNT d //item\n";
                  flush oc)
                conns;
              let responses =
                Array.map (fun (ic, _) -> read_response ic) conns
              in
              Failpoint.deactivate_all ();
              Array.iter
                (fun r ->
                  Alcotest.(check string) "byte-identical responses"
                    (Protocol.print_response responses.(0))
                    (Protocol.print_response r))
                responses;
              (match responses.(0) with
              | Protocol.Ok [ "9" ] -> ()
              | r -> Alcotest.fail ("stampede answer: " ^ Protocol.print_response r));
              let ic, oc = connect port in
              Fun.protect
                ~finally:(fun () -> try Unix.shutdown_connection ic with _ -> ())
                (fun () ->
                  Alcotest.(check string) "exactly one evaluation" "1"
                    (proto_stat ic oc "count_misses");
                  Alcotest.(check string) "the other 63 coalesced" "63"
                    (proto_stat ic oc "ev_coalesced");
                  Alcotest.(check string) "one leader" "1"
                    (proto_stat ic oc "ev_leaders");
                  (* fan-out accounting: every request counted *)
                  Alcotest.(check bool) "all requests counted" true
                    (int_of_string (proto_stat ic oc "requests") >= clients)))))

(* Error fan-out: the leader trips its deadline; every waiter gets the
   same ERR, and the deadline fired exactly once. *)
let test_single_flight_error_fanout () =
  Fun.protect ~finally:Failpoint.deactivate_all (fun () ->
      let svc =
        Service.create
          ~options:{ Service.default_options with default_deadline_ms = 60 }
          ()
      in
      Service.add_document svc "d" (small_doc "root" 5);
      with_ev_server svc (fun port ->
          let clients = 8 in
          Failpoint.activate "engine.eval" (Failpoint.Delay_ms 400);
          let conns = Array.init clients (fun _ -> connect port) in
          Fun.protect
            ~finally:(fun () ->
              Array.iter
                (fun (ic, _) -> try Unix.shutdown_connection ic with _ -> ())
                conns)
            (fun () ->
              Array.iter
                (fun (_, oc) ->
                  output_string oc "COUNT d //item\n";
                  flush oc)
                conns;
              let responses = Array.map (fun (ic, _) -> read_response ic) conns in
              Failpoint.deactivate_all ();
              Array.iter
                (fun r ->
                  Alcotest.(check (option string)) "every waiter sees the ERR"
                    (Some "DEADLINE") (Protocol.err_code r);
                  Alcotest.(check string) "identical ERR bytes"
                    (Protocol.print_response responses.(0))
                    (Protocol.print_response r))
                responses;
              let ic, oc = connect port in
              Fun.protect
                ~finally:(fun () -> try Unix.shutdown_connection ic with _ -> ())
                (fun () ->
                  Alcotest.(check string) "deadline tripped once" "1"
                    (proto_stat ic oc "deadline_errors");
                  Alcotest.(check string) "waiters coalesced" "7"
                    (proto_stat ic oc "ev_coalesced")))))

(* Idle timeout: a quiet connection is told why and closed; a busy one
   is not. *)
let test_idle_timeout () =
  let svc = Service.create () in
  Service.add_document svc "d" (small_doc "root" 3);
  with_ev_server ~idle_ms:100 svc (fun port ->
      let ic, oc = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.shutdown_connection ic with _ -> ())
        (fun () ->
          (match exchange ic oc "COUNT d //item" with
          | Protocol.Ok [ "3" ] -> ()
          | r -> Alcotest.fail ("warmup: " ^ Protocol.print_response r));
          (* go quiet past the timeout: the server speaks last *)
          let r = read_response ic in
          Alcotest.(check (option string)) "typed idle close" (Some "IDLE")
            (Protocol.err_code r);
          Alcotest.(check bool) "connection closed" true
            (match input_line ic with
            | _ -> false
            | exception End_of_file -> true));
      let ic, oc = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.shutdown_connection ic with _ -> ())
        (fun () ->
          Alcotest.(check string) "idle close counted" "1"
            (proto_stat ic oc "ev_idle_closed")))

(* Churn: cycle many short-lived connections against the loop and
   verify nothing leaks — every session closed, and the process fd
   count back where it started (server and client share this
   process). *)
let test_ev_connection_churn () =
  let count_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let svc = Service.create () in
  Service.add_document svc "d" (small_doc "root" 10);
  let rounds = 100 in
  with_ev_server svc (fun port ->
      let fds_before = count_fds () in
      for _ = 1 to rounds do
        let ic, oc = connect port in
        Fun.protect
          ~finally:(fun () ->
            (try Unix.shutdown_connection ic with _ -> ());
            close_in_noerr ic)
          (fun () ->
            match exchange ic oc "COUNT d //item" with
            | Protocol.Ok [ "10" ] -> ()
            | r -> Alcotest.fail ("churn: " ^ Protocol.print_response r))
      done;
      (* wait for the server side of every connection to be reaped *)
      let probe k =
        let ic, oc = connect port in
        Fun.protect
          ~finally:(fun () ->
            (try Unix.shutdown_connection ic with _ -> ());
            close_in_noerr ic)
          (fun () -> int_of_string (proto_stat ic oc k))
      in
      let deadline = Unix.gettimeofday () +. 5.0 in
      while probe "connections_closed" < rounds && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.02
      done;
      let opened = probe "connections_opened" in
      let closed = probe "connections_closed" in
      Alcotest.(check bool) "every connection accepted" true (opened >= rounds);
      Alcotest.(check bool)
        (Printf.sprintf "every finished session reaped (%d opened, %d closed)"
           opened closed)
        true
        (closed >= rounds);
      (* every probe above is also closed by now except possibly the
         last, still in server-side teardown: allow a little slack *)
      let fds_after = count_fds () in
      Alcotest.(check bool)
        (Printf.sprintf "no fd leak (%d before, %d after)" fds_before fds_after)
        true
        (fds_after <= fds_before + 2))

(* Sharding: documents live on their home shard, queries route there,
   and STATS aggregates across shards. *)
let test_shards_routing () =
  let sh = Shards.create ~shards:2 (fun _ -> Service.create ()) in
  Shards.add_document sh "a" (small_doc "root" 4);
  Shards.add_document sh "b" (small_doc "root" 6);
  with_ev_server (Shards.primary sh) ~shards:sh (fun port ->
      let ic, oc = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.shutdown_connection ic with _ -> ())
        (fun () ->
          (match exchange ic oc "COUNT a //item" with
          | Protocol.Ok [ "4" ] -> ()
          | r -> Alcotest.fail ("doc a: " ^ Protocol.print_response r));
          (match exchange ic oc "COUNT b //item" with
          | Protocol.Ok [ "6" ] -> ()
          | r -> Alcotest.fail ("doc b: " ^ Protocol.print_response r));
          (* both documents visible through the aggregated STATS *)
          Alcotest.(check string) "aggregated documents" "2"
            (proto_stat ic oc "documents");
          Alcotest.(check string) "shards reported" "2"
            (proto_stat ic oc "ev_shards")))

(* Percentiles do not aggregate shard by shard: shard 0 sees 96 fast
   requests, two 10ms and two 1s ones (its p99 is in the seconds), and
   shard 1 sees 100 fast ones.  Over all 200 requests the p99 is a 10ms
   one — neither shard's p99, and not the worst shard's. *)
let test_shards_merge_percentiles () =
  let sh = Shards.create ~shards:2 (fun _ -> Service.create ()) in
  let module H = Sxsi_obs.Histogram in
  let all = H.create () in
  let record shard ns =
    Sxsi_service.Metrics.record_latency (Service.service_metrics (Shards.service sh shard)) ns;
    H.record all ns
  in
  for _ = 1 to 96 do record 0 1_000_000 done;
  for _ = 1 to 2 do record 0 10_000_000 done;
  for _ = 1 to 2 do record 0 1_000_000_000 done;
  for _ = 1 to 100 do record 1 1_000_000 done;
  let p99 stats = List.assoc "latency_p99_ms" stats in
  let shard0 = p99 (Service.stats (Shards.service sh 0)) in
  let shard1 = p99 (Service.stats (Shards.service sh 1)) in
  let merged = p99 (Shards.stats sh) in
  Alcotest.(check string) "merged p99 is the p99 of every request"
    (Sxsi_service.Metrics.quantile_ms all 0.99) merged;
  Alcotest.(check bool) "merged p99 is not shard 0's" true (merged <> shard0);
  Alcotest.(check bool) "merged p99 is not shard 1's" true (merged <> shard1);
  let m = float_of_string merged in
  (* the 10ms requests' bucket is [2^23, 2^24) ns *)
  Alcotest.(check bool) (Printf.sprintf "merged p99 %sms is in the 10ms bucket" merged) true
    (m >= 8.388 && m <= 16.778);
  Alcotest.(check string) "latency total sums" "2216.000"
    (List.assoc "latency_ms_total" (Shards.stats sh))

let suite =
  ( "evloop",
    [
      Alcotest.test_case "netbuf line framing" `Quick test_netbuf_lines;
      Alcotest.test_case "netbuf TOOLONG drain" `Quick test_netbuf_too_long;
      prop_netbuf_chunked;
      Alcotest.test_case "wheel fires in order" `Quick test_wheel_fires_in_order;
      Alcotest.test_case "wheel cancel and delay bound" `Quick
        test_wheel_cancel_and_delay;
      Alcotest.test_case "poll backend" `Quick test_poll_backend;
      Alcotest.test_case "single-flight join/complete" `Quick test_single_flight;
      Alcotest.test_case "single-flight seal on mutation" `Quick
        test_single_flight_seal;
      Alcotest.test_case "loop post and timer" `Quick test_loop_post_and_timer;
      Alcotest.test_case "pipelined responses in order" `Quick test_pipelining_order;
      Alcotest.test_case "partial write of a large response" `Quick
        test_partial_write_large_response;
      Alcotest.test_case "single-flight stampede" `Quick test_single_flight_stampede;
      Alcotest.test_case "single-flight error fan-out" `Quick
        test_single_flight_error_fanout;
      Alcotest.test_case "idle timeout" `Quick test_idle_timeout;
      Alcotest.test_case "connection churn leaks no fds" `Quick
        test_ev_connection_churn;
      Alcotest.test_case "shards route and aggregate" `Quick test_shards_routing;
      Alcotest.test_case "shards merge percentiles" `Quick test_shards_merge_percentiles;
    ] )
