(* serve-mixed: an open-loop load generator against a [sxsi serve]
   child process.

   The reads are 80% COUNT, 15% QUERY and 5% MATERIALIZE, drawn
   Zipf-wise from a query space several times the server's 4096-entry
   count cache (X01-X12 over an XMark document plus contains /
   starts-with templates filled from the generator vocabulary over
   XMark and Medline).  Beside the reads runs a write stream of about
   one per second: LOAD of a small saved index under a rotating name,
   then EVICT of the previous one.  Requests go out on 2 pipelined
   connections at seeded exponential gaps; each is timed from its due
   time, so a stall is charged to every request queued behind it.

   Phases: a warm-up that COUNTs the 4096 hottest ranks; a saturation
   probe (closed loop, window 32 per connection) that estimates
   capacity C; then three reference-rate segments (latency) with two
   staircases of open-loop probes between them, each staircase
   starting at 0.8 C and converging on the highest rate that meets the
   latency limit with no growing backlog ({!Stats.staircase_estimate}).
   Before each segment and after the last, two short saturated closed
   loops per verb, that verb only.  Latency is the median over the
   segments of each segment's percentile, the sustained rate the mean
   of the two staircases, and a verb's rate the median of its eight
   loops' answered requests per second: a virtual machine that shares
   its cores runs up to 2x faster in brief, irregular bursts, and
   stalls now and then; the median of loops spread over the run
   ignores both, where the best loop would be the luck of catching a
   burst. *)

open Sxsi_xml
module E = Sxsi_core.Engine
module P = Sxsi_service.Protocol
module J = Sxsi_obs.Json

let now = Spans.now_ns
let secs ns = float_of_int ns /. 1e9

let reference_rate = 250.0
let limit_s = 0.100
let window = 32
let count_cache = 4096  (* Service.default_options.count_cache *)
let zipf_s = 0.8

let xmark_doc = "x"
let medline_doc = "m"

(* ------------------------------------------------------------------ *)
(* Inputs                                                               *)

let prep_sizes scale =
  (Work.scaled scale 1500, Work.scaled scale 1000, Work.scaled scale 50)

(* Generate the served corpora, index them and save the indexes the
   server preloads, plus the small index the write stream loads. *)
let prep ~seed ~scale ~work =
  let xs, ms, ws = prep_sizes scale in
  let corpora =
    [
      (xmark_doc, Sxsi_datagen.Xmark.generate ~seed ~scale:xs ());
      (medline_doc, Sxsi_datagen.Medline.generate ~seed:(seed + 1) ~citations:ms ());
      ("w", Sxsi_datagen.Xmark.generate ~seed:(seed + 2) ~scale:ws ());
    ]
  in
  List.iter
    (fun (name, xml) ->
      Work.write_file (Filename.concat work (name ^ ".xml")) xml;
      Document.save (Document.of_xml xml) (Filename.concat work (name ^ ".sxsi")))
    corpora

let xmark_battery = List.filteri (fun i _ -> i < 12) Work.xmark_queries

let templates =
  [
    (medline_doc, "//Article[.//AbstractText[contains(., \"%s\")]]", `Word);
    (medline_doc, "//ArticleTitle[contains(., \"%s\")]", `Word);
    (medline_doc, "//AbstractText[contains(., \"%s\")]", `Word);
    (medline_doc, "//Author[LastName[starts-with(., \"%s\")]]", `Prefix);
    (xmark_doc, "//listitem//keyword[contains(., \"%s\")]", `Word);
    (xmark_doc, "//keyword[contains(., \"%s\")]", `Word);
    (xmark_doc, "//text[contains(., \"%s\")]", `Word);
    (xmark_doc, "//emph[contains(., \"%s\")]", `Word);
    (xmark_doc, "//name[starts-with(., \"%s\")]", `Prefix);
  ]

(* Literals whose occurrence count in the target document exceeds
   this are left out: those fills approach the latency limit on an
   idle server (frequent short words make [contains] locate thousands
   of hits). *)
let max_occurrences = 400

let fill tpl lit =
  match String.split_on_char '%' tpl with
  | [ a; b ] -> a ^ lit ^ String.sub b 1 (String.length b - 1)
  | _ -> invalid_arg tpl

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* The query space, in Zipf-rank order.  Ranks cycle through the
   templates, and the X01-X12 battery sits at fixed ranks, so the
   share of traffic each template gets does not depend on the seed;
   the seed picks which literal fills each rank. *)
let query_space ~seed docs =
  let st = Random.State.make [| seed; 29 |] in
  let vocab = Sxsi_datagen.Words.vocabulary in
  let fills =
    List.map
      (fun (d, tpl, kind) ->
        let text = Document.text (List.assoc d docs) in
        let seen = Hashtbl.create 64 in
        let lits =
          List.filter_map
            (fun w ->
              let lit =
                match kind with
                | `Word -> w
                | `Prefix -> String.capitalize_ascii (String.sub w 0 (min 3 (String.length w)))
              in
              if Hashtbl.mem seen lit
                 || Sxsi_text.Text_collection.global_count text lit > max_occurrences
              then None
              else begin
                Hashtbl.add seen lit ();
                Some lit
              end)
            (Array.to_list vocab)
        in
        let a = Array.of_list lits in
        shuffle st a;
        (d, tpl, a))
      templates
  in
  let longest = List.fold_left (fun m (_, _, a) -> max m (Array.length a)) 0 fills in
  let entries =
    List.concat
      (List.init longest (fun i ->
           List.filter_map
             (fun (d, tpl, a) -> if i < Array.length a then Some (d, fill tpl a.(i)) else None)
             fills))
  in
  let x = List.map (fun (_, q) -> (xmark_doc, q)) xmark_battery in
  (* the battery at ranks 50, 850, 1650, ... *)
  let rec place i entries x =
    match (entries, x) with
    | _, [] -> entries
    | [], q :: rest -> q :: place (i + 1) [] rest
    | e :: rest, q :: xs when i mod 800 = 50 -> q :: place (i + 1) (e :: rest) xs
    | e :: rest, x -> e :: place (i + 1) rest x
  in
  Array.of_list (place 0 entries x)

let zipf_cdf n =
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** zipf_s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw st cdf =
  let u = Random.State.float st 1.0 in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* ------------------------------------------------------------------ *)
(* Requests and connections                                             *)

type verb = Count | Query | Materialize

type kind = Read of verb * int (* space index *) | Write of string

type outcome = O_count of int | O_digest of string | O_ok | O_err of string

type req = {
  rid : int;
  kind : kind;
  line : string;
  due : int;             (* ns *)
  mutable sent : int;
  mutable recv : int;    (* 0 until answered *)
  mutable outcome : outcome;
}

(* One thread drives both connections with select(2): it paces the
   sends, reads and parses responses, and never blocks on a socket, so
   a slow reply cannot hold back the schedule and no lock is handed
   between threads on the timing path. *)
type conn = {
  fd : Unix.file_descr;
  pending : req Queue.t;    (* sent, in order; responses come back in order *)
  out : Buffer.t;           (* bytes not yet accepted by the socket *)
  mutable partial : string; (* an incomplete trailing line *)
  mutable lines : string list;  (* lines of the response being read, reversed *)
}

type gen = {
  conns : conn array;
  mutable next_conn : int;
  mutable outstanding : int;
  mutable all : req list;  (* every request sent, newest first *)
  mutable next_rid : int;
  chunk : Bytes.t;
}

let summarize verb = function
  | P.Err m -> O_err m
  | P.Ok [ n ] when verb = Some Count -> (
    match int_of_string_opt n with Some n -> O_count n | None -> O_err ("bad count " ^ n))
  | P.Data lines when verb = Some Query ->
    O_digest (Digest.to_hex (Digest.string (String.concat "" (List.map (fun l -> l ^ ",") lines))))
  | P.Data lines when verb = Some Materialize ->
    O_digest (Digest.to_hex (Digest.string (String.concat "\n" lines)))
  | P.Ok _ when verb = None -> O_ok
  | _ -> O_err "unexpected response shape"

let complete g c resp t =
  match Queue.take_opt c.pending with
  | Some r ->
    let verb = match r.kind with Read (v, _) -> Some v | Write _ -> None in
    r.outcome <- summarize verb resp;
    r.recv <- t;
    g.outstanding <- g.outstanding - 1
  | None -> ()

(* Feed one received line to the connection's response parser: a
   single [OK]/[ERR] line, or a [DATA] block closed by a lone ".". *)
let on_line g c line t =
  let finished =
    match c.lines with
    | [] -> line <> "DATA"
    | _ -> line = "."
  in
  c.lines <- line :: c.lines;
  if finished then begin
    let raw = List.rev c.lines in
    c.lines <- [];
    match P.parse_response raw with
    | Ok (resp, _) -> complete g c resp t
    | Error e -> complete g c (P.Err ("unparsable response: " ^ e)) t
  end

let read_available g c =
  match Unix.read c.fd g.chunk 0 (Bytes.length g.chunk) with
  | 0 -> false
  | n ->
    let t = now () in
    let data = c.partial ^ Bytes.sub_string g.chunk 0 n in
    let parts = String.split_on_char '\n' data in
    let rec feed = function
      | [ last ] -> c.partial <- last
      | l :: rest ->
        on_line g c l t;
        feed rest
      | [] -> c.partial <- ""
    in
    feed parts;
    true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> true

let flush_out c =
  let len = Buffer.length c.out in
  if len > 0 then
    match Unix.write_substring c.fd (Buffer.contents c.out) 0 len with
    | n ->
      let rest = Buffer.sub c.out n (len - n) in
      Buffer.clear c.out;
      Buffer.add_string c.out rest
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

(* Wait up to [timeout] seconds for socket events and handle them. *)
let pump g timeout =
  let fds = Array.to_list (Array.map (fun c -> c.fd) g.conns) in
  let wfds =
    Array.to_list g.conns |> List.filter (fun c -> Buffer.length c.out > 0) |> List.map (fun c -> c.fd)
  in
  match Unix.select fds wfds [] (Float.max 0.0 timeout) with
  | r, w, _ ->
    Array.iter
      (fun c ->
        if List.memq c.fd w then flush_out c;
        if List.memq c.fd r && not (read_available g c) then
          failwith "server closed the connection")
      g.conns
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let send g ~kind ~line ~due =
  let c = g.conns.(g.next_conn) in
  g.next_conn <- (g.next_conn + 1) mod Array.length g.conns;
  g.next_rid <- g.next_rid + 1;
  let r = { rid = g.next_rid; kind; line; due; sent = now (); recv = 0; outcome = O_err "no response" } in
  g.outstanding <- g.outstanding + 1;
  Queue.add r c.pending;
  Buffer.add_string c.out line;
  Buffer.add_char c.out '\n';
  flush_out c;
  g.all <- r :: g.all;
  r

(* Handle socket events until [t]. *)
let wait_until g t =
  let rec loop () =
    let d = t - now () in
    if d > 0 then begin
      pump g (float_of_int d /. 1e9);
      loop ()
    end
  in
  loop ()

(* Wait until every sent request is answered (or [timeout_s] passes). *)
let drain g timeout_s =
  let deadline = now () + int_of_float (timeout_s *. 1e9) in
  while g.outstanding > 0 && now () < deadline do
    pump g 0.01
  done

(* Block until fewer than [window] requests per connection are in
   flight. *)
let wait_window g =
  while g.outstanding >= window * Array.length g.conns do
    pump g 0.01
  done

(* ------------------------------------------------------------------ *)
(* Load                                                                 *)

type stream = {
  space : (string * string) array;
  cdf : float array;
  st : Random.State.t;
  work : string;
  mutable writes : int;
  mutable next_write : int;  (* ns *)
}

let verb_name = function Count -> "COUNT" | Query -> "QUERY" | Materialize -> "MATERIALIZE"

let draw_read ?verb s =
  let u = Random.State.float s.st 1.0 in
  let verb =
    match verb with
    | Some v -> v
    | None -> if u < 0.80 then Count else if u < 0.95 then Query else Materialize
  in
  let i = zipf_draw s.st s.cdf in
  let d, q = s.space.(i) in
  (Read (verb, i), Printf.sprintf "%s %s %s" (verb_name verb) d q)

(* The write stream: LOAD under a rotating name, then EVICT of the
   previous name, about one of each per second. *)
let maybe_write g s t =
  if t >= s.next_write then begin
    s.next_write <- t + 1_000_000_000;
    let name = Printf.sprintf "w%d" s.writes in
    let path = Filename.concat s.work "w.sxsi" in
    ignore (send g ~kind:(Write "load") ~line:(Printf.sprintf "LOAD %s %s" name path) ~due:t);
    if s.writes > 0 then
      ignore (send g ~kind:(Write "evict") ~line:(Printf.sprintf "EVICT w%d" (s.writes - 1)) ~due:t);
    s.writes <- s.writes + 1
  end

(* Open loop at [rate] for [dur] seconds: seeded exponential gaps. *)
let open_loop g s ~rate ~dur =
  let t0 = now () in
  let stop = t0 + int_of_float (dur *. 1e9) in
  let sent = ref [] in
  let due = ref t0 in
  while !due < stop do
    wait_until g !due;
    maybe_write g s !due;
    let kind, line = draw_read s in
    sent := send g ~kind ~line ~due:!due :: !sent;
    let gap = -.log (1.0 -. Random.State.float s.st 1.0) /. rate in
    due := !due + int_of_float (gap *. 1e9)
  done;
  List.rev !sent

(* Closed loop with [window] requests in flight per connection: COUNT
   of the [n] hottest ranks, in rank order, so the count cache starts
   the measured phases near its steady state. *)
let warm g s ~n =
  for i = 0 to min n (Array.length s.space) - 1 do
    wait_window g;
    let d, q = s.space.(i) in
    ignore (send g ~kind:(Read (Count, i)) ~line:(Printf.sprintf "COUNT %s %s" d q) ~due:(now ()))
  done

(* Closed loop with [window] requests in flight per connection, of
   reads of [verb] only if given. *)
let saturate ?verb g s ~dur =
  let t0 = now () in
  let stop = t0 + int_of_float (dur *. 1e9) in
  let sent = ref [] in
  while now () < stop do
    wait_window g;
    let t = now () in
    maybe_write g s t;
    let kind, line = draw_read ?verb s in
    sent := send g ~kind ~line ~due:t :: !sent
  done;
  List.rev !sent

let reads l = List.filter (fun r -> match r.kind with Read _ -> true | Write _ -> false) l
let latency r = if r.recv = 0 then infinity else secs (r.recv - r.due)
let answered r = r.recv > 0 && (match r.outcome with O_err _ -> false | _ -> true)

(* A probe passes when p99 latency (failures count as misses) is
   within the limit and the backlog does not grow. *)
let judge l =
  let rs = reads l in
  let ok = List.filter answered rs in
  let failed = List.length rs - List.length ok in
  Stats.probe_ok ~limit:limit_s ~pct:99.0 ~latencies:(List.map latency ok) ~failed

(* ------------------------------------------------------------------ *)
(* Server-side counters                                                 *)

let stats_of port =
  let fd = connect port in
  ignore (Unix.write_substring fd "STATS\nQUIT\n" 0 11);
  let ic = Unix.in_channel_of_descr fd in
  let read_line () = try Some (input_line ic) with End_of_file -> None in
  let r = P.read_response read_line in
  Unix.close fd;
  match r with
  | Ok (P.Data lines) ->
    List.filter_map
      (fun l ->
        match String.index_opt l '=' with
        | Some i -> Some (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
        | None -> None)
      lines
  | _ -> []

let stat_f s k =
  match List.assoc_opt k s with
  | Some v -> (
    (* per-shard lists are comma-separated: sum them *)
    List.fold_left
      (fun a x -> a +. Option.value ~default:0.0 (float_of_string_opt x))
      0.0 (String.split_on_char ',' v))
  | None -> 0.0

(* ------------------------------------------------------------------ *)
(* Verification against in-process answers                              *)

let load_docs work =
  List.map (fun n -> (n, Document.load (Filename.concat work (n ^ ".sxsi")))) [ xmark_doc; medline_doc ]

(* The engine's answer to every (verb, query) the run asked.  One
   evaluation per distinct query answers every verb on it (the count
   is the number of selected nodes).  The distinct queries are split
   over two domains, the second with its own copy of the documents,
   loaded from the saved indexes, as the server's shards each own
   theirs. *)
let expected_answers ~docs ~work ~space all =
  let verbs = Hashtbl.create 4096 in
  List.iter
    (fun r ->
      match r.kind with
      | Read (v, i) ->
        let vs = Option.value ~default:[] (Hashtbl.find_opt verbs i) in
        if not (List.mem v vs) then Hashtbl.replace verbs i (v :: vs)
      | Write _ -> ())
    all;
  let queries = Array.of_seq (Hashtbl.to_seq verbs) in
  let part k docs () =
    let docs = docs () in
    let out = ref [] in
    Array.iteri
      (fun j (i, vs) ->
        if j mod 2 = k then begin
          let d, q = space.(i) in
          let doc = List.assoc d docs in
          let nodes = E.select (E.prepare doc q) in
          List.iter
            (fun v ->
              let e =
                match v with
                | Count -> O_count (Array.length nodes)
                | Query -> O_digest (Work.digest_ints (Array.map (Document.preorder doc) nodes))
                | Materialize ->
                  O_digest
                    (Work.digest_string
                       (String.concat "\n" (Array.to_list (Array.map (Document.serialize doc) nodes))))
              in
              out := ((v, i), e) :: !out)
            vs
        end)
      queries;
    !out
  in
  let other = Domain.spawn (part 1 (fun () -> load_docs work)) in
  let mine = part 0 (fun () -> docs) () in
  let answers = Hashtbl.create 8192 in
  List.iter (fun (k, e) -> Hashtbl.replace answers k e) (mine @ Domain.join other);
  (answers, Array.length queries)

let verify ~docs ~work ~space all =
  let answers, distinct = expected_answers ~docs ~work ~space all in
  let failed = ref 0 and errors = ref [] in
  let fail r why =
    incr failed;
    if List.length !errors < 5 then errors := Printf.sprintf "%s: %s" r.line why :: !errors
  in
  List.iter
    (fun r ->
      match (r.kind, r.outcome) with
      | _, O_err m -> fail r m
      | Write _, O_ok -> ()
      | Read (v, i), o -> if o <> Hashtbl.find answers (v, i) then fail r "answer differs from the engine's"
      | Write _, _ -> fail r "unexpected reply")
    all;
  (!failed, List.rev !errors, distinct)

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)

let index_ratio work =
  let size name = (Unix.stat (Filename.concat work (name ^ ".xml"))).Unix.st_size in
  let docs = load_docs work in
  let ib = List.fold_left (fun a (_, d) -> a + (Document.space_bits d / 8)) 0 docs in
  (docs, float_of_int ib /. float_of_int (size xmark_doc + size medline_doc))

let run ~seed ~seconds ~trace ~port ~work ~out =
  Spans.enabled := trace;
  let t_run = now () in
  let docs, ratio = index_ratio work in
  let space = query_space ~seed docs in
  let s =
    { space; cdf = zipf_cdf (Array.length space); st = Random.State.make [| seed; 31 |]; work;
      writes = 0; next_write = 0 }
  in
  let g =
    {
      conns =
        Array.init 2 (fun _ ->
            let fd = connect port in
            Unix.set_nonblock fd;
            { fd; pending = Queue.create (); out = Buffer.create 4096; partial = ""; lines = [] });
      next_conn = 0;
      outstanding = 0;
      all = [];
      next_rid = 0;
      chunk = Bytes.create 65536;
    }
  in
  let phase f = let r = f () in drain g 30.0; r in
  let frac x = Float.max 0.5 (x *. seconds) in
  s.next_write <- now ();
  phase (fun () -> warm g s ~n:count_cache);
  let st0 = stats_of port in
  (* capacity C from a saturated closed loop, only to place the first
     probe of each staircase *)
  let t_sat = now () in
  let sat = phase (fun () -> saturate g s ~dur:(frac 0.05)) in
  let capacity =
    float_of_int (List.length (List.filter answered sat)) /. secs (now () - t_sat)
  in
  (* answered requests per second of saturated closed loops of each
     verb only, two loops per verb, interleaved *)
  let verb_rates () =
    List.map
      (fun verb ->
        let t0 = now () in
        let l = phase (fun () -> saturate ~verb g s ~dur:(frac 0.05)) in
        (verb, float_of_int (List.length (List.filter answered (reads l))) /. secs (now () - t0)))
      [ Count; Query; Materialize; Count; Query; Materialize ]
  in
  let verbs1 = verb_rates () in
  (* 1-up-1-down staircase of open-loop probes: up 10% after a probe
     that meets the limit, down 10% after one that does not.  Each
     probe lasts long enough for 1000 reads (a real p99). *)
  let rec staircase budget rate acc =
    if List.length acc >= 6 && now () >= budget then List.rev acc
    else begin
      let dur = Float.max (frac 0.04) (1000.0 /. rate) in
      let l = phase (fun () -> open_loop g s ~rate ~dur) in
      let ok = judge l in
      staircase budget (if ok then rate *. 1.1 else rate /. 1.1) ((rate, l, ok) :: acc)
    end
  in
  let stair () = staircase (now () + int_of_float (frac 0.2 *. 1e9)) (0.8 *. capacity) [] in
  (* reference-rate segments of about 1100 reads (a real p99 each),
     spread over the run between the staircases *)
  let segment () = phase (fun () -> open_loop g s ~rate:reference_rate ~dur:(Float.max 4.4 (frac 0.22))) in
  let seg1 = segment () in
  let stair1 = stair () in
  let verbs2 = verb_rates () in
  let seg2 = segment () in
  let stair2 = stair () in
  let verbs3 = verb_rates () in
  let seg3 = segment () in
  let verbs4 = verb_rates () in
  let verb_loops v =
    List.concat_map (List.filter_map (fun (v', r) -> if v' = v then Some r else None))
      [ verbs1; verbs2; verbs3; verbs4 ]
  in
  let verb_qps v = Stats.median (verb_loops v) in
  let segments = [ seg1; seg2; seg3 ] and stairs = [ stair1; stair2 ] in
  let st1 = stats_of port in
  let measured_s = secs (now () - t_sat) in
  let probes = List.concat stairs in
  (* the mean of the two staircases' estimates *)
  let best_rate =
    List.fold_left (fun a st -> a +. Stats.staircase_estimate (List.map (fun (r, _, _) -> r) st)) 0.0 stairs
    /. float_of_int (List.length stairs)
  in
  Array.iter (fun c -> Unix.close c.fd) g.conns;
  let all = List.rev g.all in
  let failed, errors, distinct = verify ~docs ~work ~space all in
  (* metrics *)
  let p99_of l = match Stats.percentile_or_tail l 99.0 with Some (_, v) -> v | None -> infinity in
  let seg_lat l = List.map latency (reads l) in
  (* each segment's p50 and p99, median over the segments *)
  let ref_p50 = Stats.median (List.map (fun l -> Stats.median (seg_lat l)) segments) in
  let ref_p99 = Stats.median (List.map (fun l -> p99_of (seg_lat l)) segments) in
  let ref_reads = List.length (List.concat_map seg_lat segments) in
  (* the percentile each segment could report (99 with 1000 reads) *)
  let tail_pct =
    List.fold_left
      (fun m sg ->
        match Stats.percentile_or_tail (seg_lat sg) 99.0 with
        | Some (p, _) -> Float.min m p
        | None -> nan)
      99.0 segments
  in
  let loads = List.filter (fun r -> r.kind = Write "load" && r.recv > 0) all in
  let load_ms = Stats.median (List.map (fun r -> secs (r.recv - r.sent) *. 1e3) loads) in
  let lag = Stats.lateness ~due:(List.map (fun r -> secs r.due) all) ~sent:(List.map (fun r -> secs r.sent) all) in
  let d k = stat_f st1 k -. stat_f st0 k in
  let ratio_of a b = if a +. b > 0.0 then a /. (a +. b) else 0.0 in
  (* Traced: one span tree per request, recorded from the generator's
     own timestamps after the load (so tracing costs the load
     nothing), plus the in-process layer ledger over the served XMark
     document. *)
  let traced_layers () =
    let run_ns = now () - t_run in
    let record_ns, () =
      Inproc.time_ns (fun () ->
          List.iter
            (fun r ->
              let root = Spans.record ~req:r.rid "loadgen.request" r.due (max r.due r.recv) in
              ignore (Spans.record ~parent:root ~req:r.rid "loadgen.send" r.due r.sent);
              if r.recv > 0 then
                ignore (Spans.record ~parent:root ~req:r.rid "service.request" r.sent r.recv))
            all)
    in
    let x = List.assoc xmark_doc docs in
    let xml = Work.read_file (Filename.concat work (xmark_doc ^ ".xml")) in
    let build () = Document.of_xml xml in
    let build_ns, _ = Inproc.time_ns build in
    let ctx = Inproc.new_ctx x in
    let compiled = Inproc.compile x xmark_battery in
    let pairs = Inproc.traced_pass ctx compiled in
    let ls =
      Inproc.layers ~seed ~xml ~work ~wl:"serve-mixed" ~build ~setup_build_s:(secs build_ns)
        ~queries:xmark_battery ~compiled ctx pairs
    in
    ls
    @ [ ("trace.overhead_pct", 100.0 *. float_of_int record_ns /. float_of_int run_ns) ]
    @ Inproc.self_times ()
  in
  let f x = J.Float x in
  let e2e =
    [
      ("index_bytes_per_doc_byte", f ratio);
      ("count_qps", f (verb_qps Count));
      ("select_qps", f (verb_qps Query));
      ("materialize_qps", f (verb_qps Materialize));
      ("latency_p50_ms", f (ref_p50 *. 1e3));
      ("latency_p99_ms", f (ref_p99 *. 1e3));
      ("sustained_qps", f best_rate);
    ]
  in
  let serve_layers =
    [
      ("xml.load_rtt_ms", load_ms);
      ("service.count_hit_ratio", ratio_of (d "count_hits") (d "count_misses"));
      ("service.compiled_hit_ratio", ratio_of (d "compiled_hits") (d "compiled_misses"));
      ("service.server_p50_ms", stat_f st1 "latency_p50_ms");
      ("service.server_p99_ms", stat_f st1 "latency_p99_ms");
      ("evloop.coalesced_ratio", d "ev_coalesced" /. Float.max 1.0 (d "requests"));
      ("evloop.exec_utilization", d "ev_exec_busy_ms" /. (measured_s *. 1e3));
      ("evloop.turns_per_request", d "ev_turns" /. Float.max 1.0 (d "requests"));
      ("loadgen.lag_p99_ms",
        (match Stats.percentile_or_tail lag 99.0 with Some (_, v) -> v *. 1e3 | None -> nan));
      ("loadgen.capacity_qps", capacity);
    ]
  in
  let facts =
    [
      ("nproc", J.Int (Domain.recommended_domain_count ()));
      ("ocaml", J.String Sys.ocaml_version);
      ("pool_domains", J.Int (Sxsi_par.Pool.default_domains ()));
      ("tree_backend", J.String (List.assoc_opt "document_backends" st1 |> Option.value ~default:"?"));
      ("serve_shards", J.Int (int_of_float (stat_f st1 "ev_shards")));
      ("prof_backend",
        J.String (if Domain.recommended_domain_count () > 1 then "dedicated" else "cooperative"));
      ("prof_hz", J.Int (int_of_float (stat_f st1 "prof_hz")));
    ]
  in
  let probe_json =
    List.map
      (fun (r, l, ok) ->
        let lat = List.map latency (reads l) in
        J.Obj
          [ ("rate", f r); ("ok", J.Bool ok); ("n", J.Int (List.length lat));
            ("p50_ms", f (Stats.median lat *. 1e3));
            ("p99_ms", f (match Stats.percentile_or_tail lat 99.0 with Some (_, v) -> v *. 1e3 | None -> nan)) ])
      probes
  in
  let j =
    J.Obj
      [
        ("workload", J.String "serve-mixed");
        ("seed", J.Int seed);
        ("facts", J.Obj facts);
        ("e2e", J.Obj e2e);
        ( "latency_basis",
          J.String
            (Printf.sprintf "%d requests at the reference rate in 3 segments; the tail is p%g" ref_reads
               tail_pct) );
        ("space", J.Int (Array.length space));
        ("distinct_checked", J.Int distinct);
        ("probes", J.List probe_json);
        ( "verb_loops",
          J.Obj
            (List.map
               (fun v ->
                 ( verb_name v,
                   J.List (List.map f (verb_loops v)) ))
               [ Count; Query; Materialize ]) );
        ("attempted", J.Int (List.length all));
        ("failed", J.Int failed);
        ("errors", J.List (List.map (fun e -> J.String e) errors));
        ("serve_layers", J.Obj (List.map (fun (k, v) -> (k, f v)) serve_layers));
        ("layers", J.Obj (List.map (fun (k, v) -> (k, f v)) (if trace then traced_layers () else [])));
      ]
  in
  Work.write_file out (J.to_string j);
  if trace then Spans.write (out ^ ".spans")
