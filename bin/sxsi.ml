(* The sxsi command-line tool: index an XML file in memory and run
   Core+ queries against it, inspect document statistics, or generate
   the synthetic benchmark corpora. *)

open Cmdliner
open Sxsi_xml
open Sxsi_core

let pp_bytes b =
  let f = float_of_int b in
  if f >= 1e6 then Printf.sprintf "%.2fMB" (f /. 1e6)
  else if f >= 1e3 then Printf.sprintf "%.1fKB" (f /. 1e3)
  else Printf.sprintf "%dB" b

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                     *)
(* ------------------------------------------------------------------ *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"XML document")

let query_arg =
  Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY" ~doc:"Core+ XPath query")

let drop_ws =
  Arg.(value & flag & info [ "drop-whitespace" ] ~doc:"Discard whitespace-only text nodes")

let no_jump =
  Arg.(value & flag & info [ "no-jump" ] ~doc:"Disable jumping to relevant nodes (§5.4.1)")

let no_memo =
  Arg.(value & flag & info [ "no-memo" ] ~doc:"Disable transition memoization (§5.5.2)")

let optimize_arg =
  let on_off = Arg.enum [ ("on", true); ("off", false) ] in
  Arg.(value & opt on_off true & info [ "optimize" ] ~docv:"on|off"
         ~doc:"Whole-query automaton optimization: prune dead states and transitions, \
               merge duplicate states and precompute jump sets before running \
               (default on).  $(b,off) evaluates the raw translation — the \
               differential-testing baseline")

let strategy_arg =
  let strategy_conv =
    Arg.enum [ ("auto", Engine.Auto); ("top-down", Engine.Top_down); ("bottom-up", Engine.Bottom_up) ]
  in
  Arg.(value & opt strategy_conv Engine.Auto & info [ "strategy" ] ~docv:"S"
         ~doc:"Evaluation strategy: auto, top-down or bottom-up")

let show_stats =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print engine statistics (visited/marked/jumps)")

let show_trace =
  Arg.(value & flag & info [ "trace" ]
         ~doc:"Emit a one-line JSON trace record (phase timings in nanoseconds, engine \
               and index counters) on stderr")

let timeout_arg =
  Arg.(value & opt (some int) None & info [ "timeout" ] ~docv:"MS"
         ~doc:"Per-query deadline in milliseconds.  Overruns exit with status 124 \
               ($(b,count)/$(b,select)) or answer ERR DEADLINE ($(b,serve)/$(b,repl), \
               where the deadline covers each request and sessions can override it \
               with the DEADLINE verb)")

let max_results_arg =
  Arg.(value & opt (some int) None & info [ "max-results" ] ~docv:"N"
         ~doc:"Per-query result-count cap.  Overruns exit with status 124 \
               ($(b,count)/$(b,select)) or answer ERR BUDGET ($(b,serve)/$(b,repl))")

let profile_flag =
  Arg.(value & flag & info [ "profile" ]
         ~doc:"Sample the command with the wall-clock profiler and print a top-N \
               self-time table (with allocation and lock-wait columns) on stderr \
               when it exits")

(* Wrap one command run in a profiling window: start the sampler, diff
   a snapshot across [f] and print the self-time table.  The table goes
   to stderr so it composes with result output on stdout. *)
let with_profile enabled f =
  if not enabled then f ()
  else begin
    Sxsi_prof.Prof.ensure_started ();
    let since = Sxsi_prof.Prof.snapshot () in
    Fun.protect
      ~finally:(fun () ->
        prerr_string (Sxsi_prof.Prof.to_table (Sxsi_prof.Prof.report ~since ()));
        Sxsi_prof.Prof.stop ())
      f
  end

(* Query-only budget for one-shot commands: the clock starts after the
   document is loaded, so --timeout bounds evaluation, not parsing. *)
let cli_budget ~timeout_ms ~max_results =
  Sxsi_qos.Budget.of_limits ?deadline_ms:timeout_ms ?max_results ()

let budget_exit = 124 (* same convention as timeout(1) *)

let or_budget_exceeded f =
  try f () with
  | Sxsi_qos.Budget.Exceeded reason ->
    Printf.eprintf "sxsi: %s budget exceeded\n%!" (Sxsi_qos.Budget.reason_name reason);
    exit budget_exit

let domains_arg =
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N"
         ~doc:"Domain-pool size for index construction and query evaluation \
               (default: the $(b,SXSI_DOMAINS) environment variable, else 1; \
               1 means sequential)")

let backend_arg =
  let backend_conv = Arg.enum [ ("bp", `Bp); ("grammar", `Grammar) ] in
  Arg.(value & opt (some backend_conv) None & info [ "backend" ] ~docv:"B"
         ~doc:"Tree backend: $(b,bp) (succinct balanced parentheses, the default) or \
               $(b,grammar) (grammar-compressed, for repetitive-structure documents).  \
               Default: the $(b,SXSI_BACKEND) environment variable, else bp.  \
               Pre-built .sxsi files keep the backend they were indexed with")

let resolve_domains = function
  | Some d -> max 1 d
  | None -> Sxsi_par.Pool.default_domains ()

(* Run [f] with the pool the --domains/SXSI_DOMAINS setting asks for:
   [None] (pure sequential paths) below 2 domains. *)
let with_domains domains f =
  match resolve_domains domains with
  | 1 -> f None
  | d -> Sxsi_par.Pool.with_pool ~name:"cli" ~domains:d (fun p -> f (Some p))

let load_document ?pool ?backend ~keep_whitespace file =
  if Filename.check_suffix file ".sxsi" then Document.load file
  else Document.of_xml ?pool ?backend ~keep_whitespace (read_file file)

let with_engine file query drop_whitespace no_jump no_memo optimize strategy stats_flag
    trace_flag domains backend k =
  with_domains domains (fun pool ->
      let doc = load_document ?pool ?backend ~keep_whitespace:(not drop_whitespace) file in
      let trace = if trace_flag then Some (Sxsi_obs.Trace.create ~label:query ()) else None in
      let compiled = Engine.prepare ?trace ~optimize doc query in
      let stats = Run.fresh_stats () in
      let config = { (Run.default_config ()) with Run.enable_jump = not no_jump; enable_memo = not no_memo; stats } in
      let t0 = Unix.gettimeofday () in
      k ?pool doc compiled config strategy trace;
      let dt = Unix.gettimeofday () -. t0 in
      if stats_flag then begin
        Printf.eprintf
          "time: %.3fms  strategy: %s  domains: %d  visited: %d  marked: %d  jumps: %d  \
           memo hits: %d\n"
          (dt *. 1000.0)
          (match Engine.chosen_strategy ~strategy compiled with
          | `Top_down -> "top-down"
          | `Bottom_up -> "bottom-up")
          (match pool with Some p -> Sxsi_par.Pool.size p | None -> 1)
          stats.Run.visited stats.Run.marked stats.Run.jumps stats.Run.memo_hits;
        match Sxsi_auto.Optimize.stats (Engine.automaton compiled) with
        | Some o ->
          Printf.eprintf
            "optimizer: states %d -> %d  transitions %d -> %d  merged: %d  \
             jump sets: %d (%d tags)\n"
            o.Sxsi_auto.Automaton.opt_states_before o.Sxsi_auto.Automaton.opt_states_after
            o.Sxsi_auto.Automaton.opt_trans_before o.Sxsi_auto.Automaton.opt_trans_after
            o.Sxsi_auto.Automaton.opt_merged_states o.Sxsi_auto.Automaton.opt_jump_states
            o.Sxsi_auto.Automaton.opt_jump_tags
        | None -> Printf.eprintf "optimizer: off\n"
      end;
      match trace with
      | Some tr -> Printf.eprintf "%s\n" (Sxsi_obs.Json.to_string (Sxsi_obs.Trace.to_json tr))
      | None -> ())

(* ------------------------------------------------------------------ *)
(* Commands                                                             *)
(* ------------------------------------------------------------------ *)

let count_cmd =
  let run file query dw nj nm opt strategy st tf dom bk timeout maxr prof =
    with_profile prof (fun () ->
        with_engine file query dw nj nm opt strategy st tf dom bk
          (fun ?pool _doc c config strategy trace ->
            or_budget_exceeded (fun () ->
                let budget = cli_budget ~timeout_ms:timeout ~max_results:maxr in
                Printf.printf "%d\n" (Engine.count ?budget ?pool ~config ~strategy ?trace c))))
  in
  Cmd.v
    (Cmd.info "count" ~doc:"Count the nodes selected by a query")
    Term.(const run $ file_arg $ query_arg $ drop_ws $ no_jump $ no_memo $ optimize_arg
          $ strategy_arg $ show_stats $ show_trace $ domains_arg $ backend_arg
          $ timeout_arg $ max_results_arg $ profile_flag)

let select_cmd =
  let ids =
    Arg.(value & flag & info [ "ids" ] ~doc:"Print preorder identifiers instead of XML")
  in
  let run file query dw nj nm opt strategy st tf dom bk timeout maxr ids prof =
    with_profile prof (fun () ->
        with_engine file query dw nj nm opt strategy st tf dom bk
          (fun ?pool doc c config strategy trace ->
            or_budget_exceeded (fun () ->
                let budget = cli_budget ~timeout_ms:timeout ~max_results:maxr in
                let nodes = Engine.select ?budget ?pool ~config ~strategy ?trace c in
                if ids then
                  Array.iter (fun x -> Printf.printf "%d\n" (Document.preorder doc x)) nodes
                else
                  Array.iter (fun x -> print_endline (Document.serialize doc x)) nodes)))
  in
  Cmd.v
    (Cmd.info "select" ~doc:"Materialize and serialize the nodes selected by a query")
    Term.(const run $ file_arg $ query_arg $ drop_ws $ no_jump $ no_memo $ optimize_arg
          $ strategy_arg $ show_stats $ show_trace $ domains_arg $ backend_arg
          $ timeout_arg $ max_results_arg $ ids $ profile_flag)

let stats_cmd =
  let run file dw dom bk opt =
    with_domains dom @@ fun pool ->
    let t0 = Unix.gettimeofday () in
    let doc = load_document ?pool ?backend:bk ~keep_whitespace:(not dw) file in
    let dt = Unix.gettimeofday () -. t0 in
    let file_bytes = (Unix.stat file).Unix.st_size in
    Printf.printf "document:        %s\n" (pp_bytes file_bytes);
    Printf.printf "backend:         %s\n" (Document.backend_name doc);
    Printf.printf "optimizer:       %s\n" (if opt then "on" else "off");
    Printf.printf "index time:      %.2fs\n" dt;
    Printf.printf "nodes:           %d\n" (Document.node_count doc);
    Printf.printf "texts:           %d\n" (Document.text_count doc);
    Printf.printf "distinct tags:   %d\n" (Document.tag_count doc);
    Printf.printf "tree index:      %s\n" (pp_bytes (Document.tree_space_bits doc / 8));
    Printf.printf "text self-index: %s\n"
      (pp_bytes (Sxsi_text.Text_collection.fm_space_bits (Document.text doc) / 8));
    Printf.printf "index/document:  %.2f\n"
      (float_of_int ((Document.tree_space_bits doc / 8)
                     + (Sxsi_text.Text_collection.fm_space_bits (Document.text doc) / 8))
      /. float_of_int file_bytes)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Index a document and report size statistics")
    Term.(const run $ file_arg $ drop_ws $ domains_arg $ backend_arg $ optimize_arg)

let index_cmd =
  let out =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Index file to write (conventionally .sxsi)")
  in
  let run file dw out dom bk prof =
    with_profile prof (fun () ->
        with_domains dom @@ fun pool ->
        let doc =
          Document.of_xml ?pool ?backend:bk ~keep_whitespace:(not dw) (read_file file)
        in
        Document.save doc out;
        Printf.printf "indexed %d nodes, %d texts (%s backend) -> %s\n"
          (Document.node_count doc) (Document.text_count doc) (Document.backend_name doc) out)
  in
  Cmd.v
    (Cmd.info "index" ~doc:"Build the self-index and save it; count/select accept .sxsi files")
    Term.(const run $ file_arg $ drop_ws $ out $ domains_arg $ backend_arg $ profile_flag)

let explain_cmd =
  let query_only =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY" ~doc:"Core+ XPath query")
  in
  let run file query opt =
    let doc = load_document ~keep_whitespace:true file in
    let c = Engine.prepare ~optimize:opt doc query in
    print_string (Sxsi_auto.Automaton.to_string (Engine.automaton c));
    (match Sxsi_auto.Optimize.stats (Engine.automaton c) with
    | Some o ->
      Printf.printf "optimizer: states %d -> %d, transitions %d -> %d, %d merged, %d jump sets\n"
        o.Sxsi_auto.Automaton.opt_states_before o.Sxsi_auto.Automaton.opt_states_after
        o.Sxsi_auto.Automaton.opt_trans_before o.Sxsi_auto.Automaton.opt_trans_after
        o.Sxsi_auto.Automaton.opt_merged_states o.Sxsi_auto.Automaton.opt_jump_states
    | None -> print_endline "optimizer: off");
    (match Engine.bottom_up_plan c with
    | Some _ -> print_endline "bottom-up plan: available"
    | None -> print_endline "bottom-up plan: not applicable")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Print the compiled tree automaton for a query ($(b,--optimize=off) shows \
             the raw translation)")
    Term.(const run $ file_arg $ query_only $ optimize_arg)

(* ------------------------------------------------------------------ *)
(* Service front ends: the LOAD/QUERY/COUNT/MATERIALIZE/STATS/EVICT/   *)
(* QUIT protocol over stdin/stdout (repl) or TCP (serve)               *)
(* ------------------------------------------------------------------ *)

let service_options max_doc_mb compiled_cache count_cache no_jump no_memo optimize domains
    backend timeout max_results slow_ms =
  let positive = function Some n when n > 0 -> n | Some _ | None -> 0 in
  {
    Sxsi_service.Service.default_options with
    Sxsi_service.Service.max_doc_bytes =
      (match max_doc_mb with None -> max_int | Some mb -> mb * 1_000_000);
    compiled_cache;
    count_cache;
    enable_jump = not no_jump;
    enable_memo = not no_memo;
    optimize;
    domains = resolve_domains domains;
    backend;
    default_deadline_ms = positive timeout;
    max_results = positive max_results;
    slow_ms = max 0 slow_ms;
  }

let max_doc_mb_arg =
  Arg.(value & opt (some int) None & info [ "max-doc-mb" ] ~docv:"MB"
         ~doc:"Registry byte budget: evict least-recently-used documents beyond this")

let compiled_cache_arg =
  Arg.(value & opt int 256 & info [ "compiled-cache" ] ~docv:"N"
         ~doc:"Compiled-query LRU capacity (0 disables)")

let count_cache_arg =
  Arg.(value & opt int 4096 & info [ "count-cache" ] ~docv:"N"
         ~doc:"Result-count LRU capacity (0 disables)")

let preload_arg =
  Arg.(value & opt_all string [] & info [ "load" ] ~docv:"NAME=FILE"
         ~doc:"Load FILE (.xml or .sxsi) as document NAME before serving (repeatable)")

let flight_recorder_arg =
  Arg.(value & flag & info [ "flight-recorder" ]
         ~doc:"Enable the flight recorder: an always-on, low-overhead span journal \
               covering engine phases, pool scheduling, governance events and the \
               request lifecycle.  Dump it with the DUMP request; convert dumps with \
               $(b,sxsi trace-export)")

let slow_ms_arg =
  Arg.(value & opt int 0 & info [ "slow-ms" ] ~docv:"MS"
         ~doc:"Slow-query threshold: requests slower than MS milliseconds append one \
               JSON line (request, duration, reconstructed spans when the flight \
               recorder is on) to the slow-query log.  0 disables the log")

let slow_log_arg =
  Arg.(value & opt string "sxsi-slow.jsonl" & info [ "slow-log" ] ~docv:"FILE"
         ~doc:"Slow-query log path (JSON lines, appended, size-bounded); only used \
               with a positive $(b,--slow-ms)")

(* The service front ends share the flight-recorder setup: flip the
   journal on and open the slow-log sink when asked. *)
let obs_setup fr slow_ms slow_log_path =
  if fr then Sxsi_obs.Journal.set_enabled true;
  if slow_ms > 0 then Some (Sxsi_obs.Slowlog.create slow_log_path) else None

(* Service front ends can die on setup errors (bad --load spec, port in
   use) after cmdliner validation is over; report them as CLI errors
   rather than uncaught exceptions. *)
let guarded f =
  try f () with
  | Failure msg ->
    Printf.eprintf "sxsi: %s\n%!" msg;
    exit 1
  | Unix.Unix_error (e, fn, arg) ->
    Printf.eprintf "sxsi: %s%s: %s\n%!" fn
      (if arg = "" then "" else " " ^ arg)
      (Unix.error_message e);
    exit 1

(* [svc_for name] is the service that owns document [name]: the only
   one under [repl], its home shard under [serve]. *)
let preload svc_for specs =
  List.iter
    (fun spec ->
      match String.index_opt spec '=' with
      | None -> failwith (Printf.sprintf "--load %s: expected NAME=FILE" spec)
      | Some i ->
        let name = String.sub spec 0 i in
        let path = String.sub spec (i + 1) (String.length spec - i - 1) in
        (match
           Sxsi_service.Service.handle (svc_for name)
             (Sxsi_service.Protocol.Load { name; path })
         with
        | Sxsi_service.Protocol.Err msg -> failwith (spec ^ ": " ^ msg)
        | _ -> Printf.eprintf "loaded %s as %s\n%!" path name))
    specs

let repl_cmd =
  let run max_mb cc kc nj nm opt dom bk timeout maxr fr slow_ms slow_log specs =
    guarded (fun () ->
        let slow_log = obs_setup fr slow_ms slow_log in
        let svc =
          Sxsi_service.Service.create
            ~options:(service_options max_mb cc kc nj nm opt dom bk timeout maxr slow_ms)
            ?slow_log ()
        in
        Fun.protect
          ~finally:(fun () -> Sxsi_service.Service.shutdown svc)
          (fun () ->
            preload (fun _ -> svc) specs;
            Sxsi_service.Session.run stdin stdout svc))
  in
  Cmd.v
    (Cmd.info "repl"
       ~doc:"Speak the service protocol (LOAD/QUERY/COUNT/MATERIALIZE/STATS/EVICT/QUIT) \
             on stdin/stdout")
    Term.(const run $ max_doc_mb_arg $ compiled_cache_arg $ count_cache_arg $ no_jump
          $ no_memo $ optimize_arg $ domains_arg $ backend_arg $ timeout_arg
          $ max_results_arg $ flight_recorder_arg $ slow_ms_arg $ slow_log_arg
          $ preload_arg)

let serve_cmd =
  let port_arg =
    Arg.(value & opt int 7333 & info [ "p"; "port" ] ~docv:"PORT"
           ~doc:"TCP port to listen on (0 picks an ephemeral port)")
  in
  let host_arg =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind")
  in
  let shards_arg =
    Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N"
           ~doc:"Shared-nothing shards: documents hash to one of N independent \
                 services, each with its own registry, caches and executor domain")
  in
  let idle_ms_arg =
    Arg.(value & opt int 0 & info [ "idle-ms" ] ~docv:"MS"
           ~doc:"Close connections idle for MS milliseconds with ERR IDLE \
                 (0 disables)")
  in
  let profile_hz_arg =
    Arg.(value & opt int Sxsi_prof.Prof.default_hz & info [ "profile-hz" ] ~docv:"HZ"
           ~doc:"Sampling rate of the always-on wall-clock profiler behind the \
                 PROFILE request and $(b,sxsi profile) (default 997; 0 starts \
                 it lazily on the first PROFILE instead)")
  in
  let run host port shards idle_ms profile_hz max_mb cc kc nj nm opt dom bk timeout maxr
      fr slow_ms slow_log specs =
    guarded (fun () ->
        let slow_log = obs_setup fr slow_ms slow_log in
        if profile_hz > 0 then begin
          Sxsi_prof.Prof.configure ~hz:profile_hz ();
          Sxsi_prof.Prof.start ()
        end;
        let options = service_options max_mb cc kc nj nm opt dom bk timeout maxr slow_ms in
        let on_listen p = Printf.eprintf "sxsi: listening on %s:%d\n%!" host p in
        (* the slow-log sink is owned (and closed) by the primary *)
        let sh =
          Sxsi_service.Shards.create ~shards:(max 1 shards) (fun i ->
              if i = 0 then Sxsi_service.Service.create ~options ?slow_log ()
              else Sxsi_service.Service.create ~options ())
        in
        (* with the recorder on, also sample the runtime (GC + ring
           occupancy) in the background and expose it via METRICS *)
        let sampler =
          if fr then begin
            let s = Sxsi_obs.Runtime.create () in
            Sxsi_service.Service.register_runtime (Sxsi_service.Shards.primary sh) s;
            Sxsi_obs.Runtime.start s;
            Some s
          end
          else None
        in
        Fun.protect
          ~finally:(fun () ->
            Option.iter Sxsi_obs.Runtime.stop sampler;
            Sxsi_service.Shards.shutdown sh)
          (fun () ->
            preload (Sxsi_service.Shards.for_doc sh) specs;
            Sxsi_service.Ev_server.serve ~host ~idle_ms ~on_listen ~port sh))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve the protocol over TCP from an event-driven front end \
             (non-blocking loop, pipelining, single-flight query coalescing, \
             shared-nothing shards); documents and compiled queries are cached \
             and shared across connections")
    Term.(const run $ host_arg $ port_arg $ shards_arg $ idle_ms_arg $ profile_hz_arg
          $ max_doc_mb_arg $ compiled_cache_arg $ count_cache_arg $ no_jump $ no_memo
          $ optimize_arg $ domains_arg $ backend_arg $ timeout_arg $ max_results_arg
          $ flight_recorder_arg $ slow_ms_arg $ slow_log_arg $ preload_arg)

let profile_cmd =
  let host_arg =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR"
           ~doc:"Server address")
  in
  let port_arg =
    Arg.(value & opt int 7333 & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Server port")
  in
  let secs_arg =
    Arg.(value & opt int 1 & info [ "seconds" ] ~docv:"S"
           ~doc:"Profiling window in seconds (1..60)")
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Print the JSON report (schema sxsi-prof-v1) instead of the \
                 collapsed-stack text")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output file (stdout by default).  The default collapsed-stack \
                 (\"folded\") output feeds flamegraph.pl / speedscope directly")
  in
  let run host port secs json out =
    guarded (fun () ->
        let addr =
          try Unix.inet_addr_of_string host
          with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
        in
        let ic, oc = Unix.open_connection (Unix.ADDR_INET (addr, port)) in
        Fun.protect
          ~finally:(fun () -> try Unix.shutdown_connection ic with Unix.Unix_error _ -> ())
          (fun () ->
            output_string oc (Printf.sprintf "PROFILE %d\n" secs);
            flush oc;
            let next () = try Some (input_line ic) with End_of_file -> None in
            match Sxsi_service.Protocol.read_response next with
            | Error e -> failwith ("profile: " ^ e)
            | Ok (Sxsi_service.Protocol.Err e) -> failwith ("server: " ^ e)
            | Ok (Sxsi_service.Protocol.Data (json_line :: folded)) ->
              let text =
                if json then json_line ^ "\n" else String.concat "\n" folded ^ "\n"
              in
              (match out with
              | None -> print_string text
              | Some path ->
                let och = open_out_bin path in
                Fun.protect
                  ~finally:(fun () -> close_out och)
                  (fun () -> output_string och text))
            | Ok _ -> failwith "profile: unexpected response"))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Attach to a running $(b,sxsi serve) and capture a sampling profile: \
             send PROFILE, wait out the window, and write the collapsed-stack \
             output ($(b,--json) for the full report with allocation and \
             lock-contention attribution)")
    Term.(const run $ host_arg $ port_arg $ secs_arg $ json_flag $ out)

let trace_export_cmd =
  let input =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"DUMP"
           ~doc:"A flight-recorder dump: the DUMP request's JSON payload \
                 (schema sxsi-journal-v1), or a raw protocol capture of it \
                 (DATA framing is stripped)")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output file (stdout by default)")
  in
  (* Accept either the bare JSON line or a captured DATA response
     (leading "DATA", dot-stuffed payload, terminating "."). *)
  let strip_framing text =
    match String.split_on_char '\n' (String.trim text) with
    | "DATA" :: rest ->
      let unstuff l =
        if String.length l > 0 && l.[0] = '.' then String.sub l 1 (String.length l - 1)
        else l
      in
      rest
      |> List.filter (fun l -> l <> ".")
      |> List.map unstuff
      |> String.concat "\n"
    | _ -> String.trim text
  in
  let run input out =
    guarded (fun () ->
        let text =
          let ic = open_in_bin input in
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        let snaps =
          match Sxsi_obs.Json.of_string (strip_framing text) with
          | Error e -> failwith (Printf.sprintf "%s: not JSON: %s" input e)
          | Ok j -> begin
            match Sxsi_obs.Journal.of_json j with
            | Error e -> failwith (Printf.sprintf "%s: not a journal dump: %s" input e)
            | Ok snaps -> snaps
          end
        in
        let trace = Sxsi_obs.Json.to_string (Sxsi_obs.Journal.to_chrome_trace snaps) in
        match out with
        | None ->
          print_string trace;
          print_newline ()
        | Some path ->
          let oc = open_out_bin path in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () ->
              output_string oc trace;
              output_char oc '\n'))
  in
  Cmd.v
    (Cmd.info "trace-export"
       ~doc:"Convert a flight-recorder dump (the DUMP request's payload) to Chrome \
             trace_event JSON, loadable in Perfetto or chrome://tracing")
    Term.(const run $ input $ out)

let gen_cmd =
  let kind =
    Arg.(required & pos 0 (some (enum
      [ ("xmark", `Xmark); ("medline", `Medline); ("treebank", `Treebank);
        ("wiki", `Wiki); ("bio", `Bio); ("logs", `Logs) ])) None
      & info [] ~docv:"KIND"
          ~doc:"Corpus kind: xmark, medline, treebank, wiki, bio or logs")
  in
  let scale =
    Arg.(value & opt int 1000 & info [ "scale" ] ~docv:"N" ~doc:"Corpus scale")
  in
  let repetition =
    Arg.(value & opt float 0.9 & info [ "repetition" ] ~docv:"R"
           ~doc:"For the $(b,logs) kind: fraction in [0,1] of entries stamped from \
                 fixed structural templates (higher means a more repetitive tree, \
                 which the grammar backend compresses harder)")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output file (stdout by default)")
  in
  let run kind scale repetition out =
    let xml =
      match kind with
      | `Xmark -> Sxsi_datagen.Xmark.generate ~scale ()
      | `Medline -> Sxsi_datagen.Medline.generate ~citations:scale ()
      | `Treebank -> Sxsi_datagen.Treebank.generate ~sentences:scale ()
      | `Wiki -> Sxsi_datagen.Wiki.generate ~pages:scale ()
      | `Bio -> Sxsi_datagen.Bio.generate ~genes:scale ()
      | `Logs -> Sxsi_datagen.Logs.generate ~repetition ~entries:scale ()
    in
    match out with
    | None -> print_string xml
    | Some path ->
      let oc = open_out_bin path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc xml)
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic benchmark corpus")
    Term.(const run $ kind $ scale $ repetition $ out)

let () =
  (* honor SXSI_FAILPOINTS in every subcommand, not just the service
     front ends (Service.create also calls this; it is idempotent) *)
  Sxsi_qos.Failpoint.init_from_env ();
  let info =
    Cmd.info "sxsi" ~version:"1.0.0"
      ~doc:"Succinct XML Self-Index: in-memory XPath search over compressed indexes"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ count_cmd; select_cmd; stats_cmd; gen_cmd; index_cmd; explain_cmd; repl_cmd;
            serve_cmd; profile_cmd; trace_export_cmd ]))
