(* The in-process workloads (xmark-tree, medline-text, logs-grammar):
   one client thread in a closed loop over the battery, every answer
   checked against the DOM-baseline oracle.

   A run is a sequence of rounds.  In each round a (query, mode) pair
   is evaluated back to back for one time slice (at least once); the
   pair's rate for the round is evaluations over evaluation time.
   Every pair gets the same evaluation time: a pair that is ahead of
   the least-served one by a slice sits the round out, so one slow
   query (M11 takes a second) does not starve the rest of rounds.

   A pair's rate is the lower quartile of its rounds' rates, after one
   untimed warm-up evaluation.  A virtual machine that shares its
   cores (a 2-core KVM guest, measured) runs a fixed loop at a steady
   speed most of the time and up to 2x faster in brief, irregular
   bursts; a pair's best round is the luck of catching one, and its
   median moves with how many rounds a burst covered, while the lower
   quartile stays at the steady speed and still ignores a slow round
   or two.  With tracing on, rounds alternate untraced and traced
   (ABAB), which gives the tracing overhead from the same run. *)

open Sxsi_xml
module E = Sxsi_core.Engine
module J = Sxsi_obs.Json

let now = Spans.now_ns
let secs ns = float_of_int ns /. 1e9

type pair = {
  id : string;
  mode : Work.mode;
  compiled : E.compiled;
  expect : Work.expect;
  span : string;                           (* core.<mode>.<id> *)
  mutable ref_select : int array option;  (* first answer, verified by digest *)
  mutable ref_mat : string option;
  mutable rates : float list;              (* untraced rounds, evals/s *)
  mutable traced_rates : float list;
  mutable busy : int;                      (* evaluation ns, all rounds *)
  mutable traced_ns : int list;            (* traced per-eval durations *)
  mutable counters : (string * int) list;  (* first traced evaluation *)
  mutable minor_words : float;             (* first traced evaluation *)
}

type ctx = {
  doc : Document.t;
  pool : Sxsi_par.Pool.t option;
  funs : Sxsi_core.Run.text_funs option;
  buf : Buffer.t;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

type answer = A_count of int | A_select of int array | A_mat of string

let evaluate ctx ?trace p =
  let pool = ctx.pool and funs = ctx.funs in
  match p.mode with
  | Work.Count ->
    let t0 = now () in
    let n = E.count ?pool ?funs ?trace p.compiled in
    (now () - t0, A_count n)
  | Select ->
    let t0 = now () in
    let a = E.select_preorders ?pool ?funs ?trace p.compiled in
    (now () - t0, A_select a)
  | Materialize ->
    Buffer.clear ctx.buf;
    let t0 = now () in
    ignore (E.serialize_to ?pool ?funs ?trace ctx.buf p.compiled);
    let dt = now () - t0 in
    (dt, A_mat (Buffer.contents ctx.buf))

let check p = function
  | A_count n -> n = p.expect.e_count
  | A_select a -> begin
    match p.ref_select with
    | Some r -> a = r
    | None ->
      let ok = Array.length a = p.expect.e_count && Work.digest_ints a = p.expect.e_select in
      if ok then p.ref_select <- Some a;
      ok
  end
  | A_mat s -> begin
    match p.ref_mat with
    | Some r -> String.equal s r
    | None ->
      let ok = Work.digest_string s = p.expect.e_materialize in
      if ok then p.ref_mat <- Some s;
      ok
  end

let verify ctx p ans =
  if not (check p ans) then begin
    ctx.failed <- ctx.failed + 1;
    if List.length ctx.errors < 5 then
      ctx.errors <-
        Printf.sprintf "%s %s: answer differs from the oracle" p.id (Work.mode_name p.mode)
        :: ctx.errors
  end

let span_name mode id = "core." ^ Work.mode_name mode ^ "." ^ id

let run_slice ctx ~traced ~slice_ns p =
  let evals = ref 0 and busy = ref 0 in
  while !evals = 0 || !busy < slice_ns do
    ctx.attempted <- ctx.attempted + 1;
    let dt, ans =
      if traced then begin
        let tr = Sxsi_obs.Trace.create () in
        let first = p.traced_ns = [] in
        let w0 = Gc.minor_words () in
        let r =
          Spans.with_span p.span (fun () -> evaluate ctx ~trace:tr p)
        in
        if first then begin
          p.counters <- Sxsi_obs.Trace.counters tr;
          p.minor_words <- Gc.minor_words () -. w0
        end;
        p.traced_ns <- fst r :: p.traced_ns;
        r
      end
      else evaluate ctx p
    in
    verify ctx p ans;
    incr evals;
    busy := !busy + dt
  done;
  p.busy <- p.busy + !busy;
  let rate = float_of_int !evals /. secs (max 1 !busy) in
  if traced then p.traced_rates <- rate :: p.traced_rates else p.rates <- rate :: p.rates

let slice_ns = 20_000_000

let pair_rate rates = Stats.quantile rates 0.25

(* One evaluation of each pair, checked but not timed: first-use costs
   (page faults, the first select's reference answer) stay out of the
   rounds. *)
let warm_up ctx pairs =
  List.iter
    (fun p ->
      ctx.attempted <- ctx.attempted + 1;
      verify ctx p (snd (evaluate ctx p)))
    pairs

(* Rounds until the deadline; the first seven untraced rounds (and,
   traced, six traced ones between them) always complete, so the
   slowest pairs still get seven rounds.  Rounds run the battery
   forwards and backwards in turn. *)
let measure ctx ~seconds ~trace pairs =
  let deadline = now () + int_of_float (seconds *. 1e9) in
  let must = if trace then 13 else 7 in
  let round = ref 0 in
  while !round < must || now () < deadline do
    let traced = trace && !round mod 2 = 1 in
    let least = List.fold_left (fun m p -> min m p.busy) max_int pairs in
    List.iter
      (fun p ->
        if !round < must || (now () < deadline && p.busy <= least + slice_ns) then
          run_slice ctx ~traced ~slice_ns p)
      (if !round mod 2 = 0 then pairs else List.rev pairs);
    incr round
  done;
  !round

let median_ns l =
  match List.sort compare l with
  | [] -> 0
  | s -> List.nth s (List.length s / 2)

let time_ns f =
  let t0 = now () in
  let r = f () in
  (now () - t0, r)

(* Repeat [f] on [inputs] until at least 50 ms have elapsed, recorded
   as one span of that many calls; returns total ns and the number of
   calls. *)
let batch_span name inputs f =
  let n = Array.length inputs in
  let t0 = now () in
  let total = ref 0 and calls = ref 0 in
  while !total < 50_000_000 do
    let dt, () = time_ns (fun () -> Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) inputs) in
    total := !total + dt;
    calls := !calls + n
  done;
  ignore (Spans.record ~calls:!calls name t0 (now ()));
  (!total, !calls)

let per_call name inputs f =
  let total, calls = batch_span name inputs f in
  float_of_int total /. float_of_int (max 1 calls)

(* Durations of the program's own document-build phases, read from
   its flight-recorder journal (spans doc/parse, doc/tree, doc/text). *)
let journal_phases build =
  let module Jr = Sxsi_obs.Journal in
  Jr.set_enabled true;
  Jr.reset ();
  let r = build () in
  let snaps = Jr.snapshot () in
  Jr.set_enabled false;
  let acc = Hashtbl.create 8 in
  let rec walk (s : Jr.span) =
    let prev = Option.value ~default:0 (Hashtbl.find_opt acc s.Jr.sname) in
    Hashtbl.replace acc s.Jr.sname (prev + (s.Jr.end_ns - s.Jr.start_ns));
    List.iter walk s.Jr.children
  in
  List.iter (fun sn -> List.iter walk (Jr.spans sn)) snaps;
  (r, fun name -> secs (Option.value ~default:0 (Hashtbl.find_opt acc name)))

let sum_counter pairs mode key =
  List.fold_left
    (fun acc p ->
      if p.mode = mode then acc + Option.value ~default:0 (List.assoc_opt key p.counters)
      else acc)
    0 pairs

(* Per-layer metrics: layer calls timed on this workload's own
   document, plus the counters the engine's trace reported. *)
let layers ~seed ~xml ~work ~wl ~build ~setup_build_s ~queries ~compiled ctx pairs =
  let doc = ctx.doc in
  let tree = Document.tree doc in
  let st = Random.State.make [| seed; 17 |] in
  let m = ref [] in
  let add k v = m := (k, v) :: !m in
  (* xml *)
  let parse_ns, () =
    Spans.with_span "xml.parse" (fun () ->
        time_ns (fun () ->
            Xml_parser.parse ~on_open:(fun _ _ -> ()) ~on_close:(fun _ -> ()) ~on_text:(fun _ -> ())
              xml))
  in
  add "xml.parse_s" (secs parse_ns);
  add "xml.build_s" setup_build_s;
  let _, phase = Spans.with_span "xml.build" (fun () -> journal_phases build) in
  add "tree.build_s" (phase "doc/tree");
  add "tree.space_bytes" (float_of_int (Sxsi_tree.Tree_backend.space_bits tree / 8));
  let path = Filename.concat work (wl ^ ".sxsi") in
  Document.save doc path;
  let loads =
    List.init 3 (fun _ ->
        Spans.with_span "xml.load" (fun () -> fst (time_ns (fun () -> ignore (Document.load path)))))
  in
  Sys.remove path;
  add "xml.load_ms" (float_of_int (median_ns loads) /. 1e6);
  let ser_ns = ref 0 and ser_bytes = ref 0 in
  List.iter
    (fun (id, c) ->
      let p = List.find (fun p -> p.id = id) pairs in
      if p.expect.e_materialize <> "-" then begin
        let nodes = E.select ?pool:ctx.pool ?funs:ctx.funs c in
        let dt, n =
          Spans.with_span ("xml.serialize." ^ id) (fun () ->
              time_ns (fun () ->
                  Array.fold_left (fun acc x -> acc + String.length (Document.serialize doc x)) 0 nodes))
        in
        ser_ns := !ser_ns + dt;
        ser_bytes := !ser_bytes + n
      end)
    compiled;
  add "xml.serialize_ms" (float_of_int !ser_ns /. 1e6);
  add "xml.output_bytes" (float_of_int !ser_bytes);
  (* tree navigation and tag jumps over a seeded node sample *)
  let n = Sxsi_tree.Tree_backend.node_count tree in
  let nodes = Array.init 50_000 (fun _ -> Sxsi_tree.Tree_backend.node_of_preorder tree (Random.State.int st n)) in
  let elem_tags =
    Array.of_list
      (List.filter (Document.is_element_tag doc) (List.init (Document.tag_count doc) Fun.id))
  in
  let tagged = Array.map (fun x -> (x, elem_tags.(Random.State.int st (Array.length elem_tags)))) nodes in
  add "tree.first_child_ns" (per_call "tree.first_child" nodes (Sxsi_tree.Tree_backend.first_child tree));
  add "tree.next_sibling_ns" (per_call "tree.next_sibling" nodes (Sxsi_tree.Tree_backend.next_sibling tree));
  add "tree.tagged_desc_ns"
    (per_call "tree.tagged_desc" tagged (fun (x, t) -> Sxsi_tree.Tree_backend.tagged_desc tree x t));
  add "tree.tagged_foll_ns"
    (per_call "tree.tagged_foll" tagged (fun (x, t) -> Sxsi_tree.Tree_backend.tagged_foll tree x t));
  add "tree.tag_jumps" (float_of_int (sum_counter pairs Work.Count "tag_jumps"));
  add "tree.tag_reads" (float_of_int (sum_counter pairs Work.Count "tag_reads"));
  (* bit kernels over the document's own parenthesis vector *)
  let len = Sxsi_tree.Tree_backend.length tree in
  let bv = Sxsi_bits.Bitvec.of_fun len (Sxsi_tree.Tree_backend.is_open tree) in
  let ones = Sxsi_bits.Bitvec.count bv in
  let positions = Array.init 100_000 (fun _ -> Random.State.int st len) in
  let ranks = Array.init 100_000 (fun _ -> Random.State.int st ones) in
  add "bits.rank1_ns" (per_call "bits.rank1" positions (Sxsi_bits.Bitvec.rank1 bv));
  add "bits.select1_ns" (per_call "bits.select1" ranks (Sxsi_bits.Bitvec.select1 bv));
  (* grammar: only where the document uses the grammar backend *)
  if Document.backend doc = `Grammar then begin
    let slp = Sxsi_tree.Tree_backend.slp_exn tree in
    add "grammar.build_s" (phase "doc/tree");
    add "grammar.space_bytes" (float_of_int (Sxsi_grammar.Slp.space_bits slp / 8));
    add "grammar.rules" (float_of_int (Sxsi_grammar.Slp.rule_count slp))
  end;
  (* FM index and text collection *)
  let texts = Document.texts doc in
  let fm_ns, fm = Spans.with_span "fm.build" (fun () -> time_ns (fun () -> Sxsi_fm.Fm_index.build texts)) in
  add "fm.build_s" (secs fm_ns);
  add "fm.space_bytes" (float_of_int (Sxsi_fm.Fm_index.space_bits fm / 8));
  let vocab = Sxsi_datagen.Words.vocabulary in
  let words = Array.init 200 (fun _ -> vocab.(Random.State.int st (Array.length vocab))) in
  let chars = Array.fold_left (fun a w -> a + String.length w) 0 words in
  let search_total, search_calls =
    batch_span "fm.search" words (Sxsi_fm.Fm_index.count fm)
  in
  add "fm.search_ns_per_char"
    (float_of_int search_total
    /. (float_of_int search_calls *. float_of_int chars /. float_of_int (Array.length words)));
  let rows = Array.init 2_000 (fun _ -> Random.State.int st (Sxsi_fm.Fm_index.length fm)) in
  add "fm.locate_ns" (per_call "fm.locate" rows (Sxsi_fm.Fm_index.locate fm));
  add "fm.search_steps" (float_of_int (sum_counter pairs Work.Count "fm_search_steps"));
  add "fm.locate_calls" (float_of_int (sum_counter pairs Work.Count "fm_locate_calls"));
  let text = Document.text doc in
  let probes = Array.sub words 0 20 in
  let contains =
    Array.to_list
      (Array.map
         (fun w ->
           Spans.with_span "text.contains" (fun () ->
               fst (time_ns (fun () -> ignore (Sxsi_text.Text_collection.contains text w)))))
         probes)
  in
  add "text.contains_ms" (float_of_int (median_ns contains) /. 1e6);
  let ntexts = Array.length texts in
  let ids = Array.init 20_000 (fun _ -> Random.State.int st (max 1 ntexts)) in
  let bytes = Array.fold_left (fun a i -> a + String.length texts.(i)) 0 ids in
  let per_id = if ntexts = 0 then 0.0 else per_call "text.get_text" ids (Sxsi_text.Text_collection.get_text text) in
  add "text.get_text_ns_per_byte" (per_id *. float_of_int (Array.length ids) /. float_of_int (max 1 bytes));
  (* word index *)
  let wi_ns, widx =
    Spans.with_span "wordindex.build" (fun () -> time_ns (fun () -> Sxsi_wordindex.Word_index.build texts))
  in
  add "wordindex.build_s" (secs wi_ns);
  let phrases =
    Array.init 50 (fun i ->
        if i mod 2 = 0 then words.(i)
        else words.(i) ^ " " ^ vocab.(Random.State.int st 40))
  in
  add "wordindex.phrase_us"
    (per_call "wordindex.phrase" phrases (Sxsi_wordindex.Word_index.contains_phrase widx) /. 1e3);
  (* query front end: parse and compile, per query *)
  let parse_us = ref 0.0 and compile_us = ref 0.0 and states = ref 0 in
  List.iter
    (fun (id, q) ->
      let pn =
        median_ns
          (List.init 5 (fun _ ->
               Spans.with_span ("xpath.parse." ^ id) (fun () ->
                   fst (time_ns (fun () -> ignore (Sxsi_xpath.Xpath_parser.parse_union q))))))
      in
      let cn =
        median_ns
          (List.init 5 (fun _ ->
               Spans.with_span ("auto.compile." ^ id) (fun () ->
                   fst
                     (time_ns (fun () ->
                          let c = E.prepare doc q in
                          E.precompile c)))))
      in
      parse_us := !parse_us +. (float_of_int pn /. 1e3);
      compile_us := !compile_us +. (float_of_int (max 0 (cn - pn)) /. 1e3);
      states := !states + List.length (E.automaton (E.prepare doc q)).Sxsi_auto.Automaton.states)
    queries;
  let nq = float_of_int (List.length queries) in
  add "xpath.parse_us" (!parse_us /. nq);
  add "auto.compile_us" (!compile_us /. nq);
  add "auto.states" (float_of_int !states);
  (* engine: per pass over the battery *)
  let pass mode =
    List.fold_left
      (fun acc p -> if p.mode = mode then acc +. (float_of_int (median_ns p.traced_ns) /. 1e6) else acc)
      0.0 pairs
  in
  add "core.count_ms" (pass Work.Count);
  add "core.select_ms" (pass Work.Select);
  add "core.materialize_ms" (pass Work.Materialize);
  let cnt k = float_of_int (sum_counter pairs Work.Count k) in
  add "core.visited" (cnt "visited");
  add "core.marked" (cnt "marked");
  add "core.jumps" (cnt "jumps");
  add "core.memo_hits" (cnt "memo_hits");
  add "core.results_per_visited" (cnt "results" /. Float.max 1.0 (cnt "visited"));
  add "core.minor_words"
    (List.fold_left (fun a p -> if p.mode = Work.Select then a +. p.minor_words else a) 0.0 pairs);
  add "core.bottom_up_share" (cnt "bottom_up" /. nq);
  add "par.domains" (float_of_int (Sxsi_par.Pool.default_domains ()));
  List.rev !m

(* Self time per layer, in us: a span's self time is its duration
   minus its children's.  Each operation (span name) contributes its
   self time per call, and a layer sums its operations: one call of
   each.  Engine spans name the (query, mode) pair, so self.core_us is
   one pass over the battery; the figure does not grow with the run's
   length or the batches' time budgets. *)
let self_times () =
  let spans = !Spans.spans in
  let child = Hashtbl.create 1024 in
  List.iter
    (fun (s : Spans.span) ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt child s.parent) in
      Hashtbl.replace child s.parent (prev + (s.t1 - s.t0)))
    spans;
  let by_op = Hashtbl.create 64 in
  List.iter
    (fun (s : Spans.span) ->
      let self = s.t1 - s.t0 - Option.value ~default:0 (Hashtbl.find_opt child s.id) in
      let ns, calls = Option.value ~default:(0, 0) (Hashtbl.find_opt by_op s.name) in
      Hashtbl.replace by_op s.name (ns + self, calls + s.calls))
    spans;
  let by_layer = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name (ns, calls) ->
      let layer = List.hd (String.split_on_char '.' name) in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt by_layer layer) in
      Hashtbl.replace by_layer layer (prev +. (float_of_int ns /. float_of_int (max 1 calls))))
    by_op;
  Hashtbl.fold (fun k v acc -> ("self." ^ k ^ "_us", v /. 1e3) :: acc) by_layer []
  |> List.sort compare

let facts ~doc ~pool =
  let cores = Domain.recommended_domain_count () in
  [
    ("nproc", J.Int cores);
    ("ocaml", J.String Sys.ocaml_version);
    ("pool_domains", J.Int (match pool with Some p -> Sxsi_par.Pool.size p | None -> 1));
    ("tree_backend", J.String (Document.backend_name doc));
    ("serve_shards", J.Null);
    (* the rule Prof's Auto backend documents *)
    ("prof_backend", J.String (if cores > 1 then "dedicated" else "cooperative"));
    ("prof_hz", J.Int (Sxsi_prof.Prof.hz ()));
  ]

let new_ctx ?funs ?pool doc =
  { doc; pool; funs; buf = Buffer.create 65536; attempted = 0; failed = 0; errors = [] }

let new_pair id mode compiled expect =
  { id; mode; compiled; expect; span = span_name mode id; ref_select = None; ref_mat = None;
    rates = []; traced_rates = [];
    busy = 0; traced_ns = []; counters = []; minor_words = 0.0 }

let compile doc queries =
  List.map
    (fun (id, q) ->
      let c = E.prepare doc q in
      E.precompile c;
      (id, c))
    queries

(* One traced evaluation per (query, mode), answers taken as correct:
   the layer ledger for a document whose answers are checked
   elsewhere (serve-mixed checks them over the wire). *)
let traced_pass ctx compiled =
  List.concat_map
    (fun (id, c) ->
      let expect = { Work.e_count = 0; e_select = ""; e_materialize = "" } in
      List.map
        (fun mode ->
          let p = new_pair id mode c expect in
          let tr = Sxsi_obs.Trace.create () in
          let w0 = Gc.minor_words () in
          let dt, _ = Spans.with_span p.span (fun () -> evaluate ctx ~trace:tr p) in
          p.counters <- Sxsi_obs.Trace.counters tr;
          p.minor_words <- Gc.minor_words () -. w0;
          p.traced_ns <- [ dt ];
          p)
        Work.all_modes)
    compiled

let run ~wl ~seed ~seconds ~trace ~xml_path ~oracle ~work ~out =
  let b = Work.battery wl in
  let xml = Work.read_file xml_path in
  let expect = Work.read_oracle oracle in
  let domains = Sxsi_par.Pool.default_domains () in
  let pool = if domains > 1 then Some (Sxsi_par.Pool.create ~domains ()) else None in
  Spans.enabled := trace;
  let build () = Document.of_xml ?pool ?backend:b.backend xml in
  let setup () =
    let t0 = now () in
    let doc = Spans.with_span "xml.build" build in
    let t1 = now () in
    let widx =
      if b.word_index then
        Some
          (Spans.with_span "wordindex.build" (fun () ->
               Sxsi_wordindex.Word_index.build (Document.texts doc)))
      else None
    in
    (doc, widx, secs (t1 - t0), secs (now () - t0))
  in
  (* set-up is repeated, at least 3 times and for at least 2 s (at
     most 15 times), so that a set-up of 0.1 s also gives a steady
     median; only the first build is kept *)
  let doc, widx, build_s, setup_s = setup () in
  let rec repeat acc total =
    if List.length acc >= 14 || (List.length acc >= 2 && total >= 2.0) then acc
    else begin
      let _, _, b, s = setup () in
      repeat ((b, s) :: acc) (total +. s)
    end
  in
  let again = repeat [] setup_s in
  Gc.compact ();
  let setups = setup_s :: List.map snd again in
  let builds = build_s :: List.map fst again in
  let ctx = new_ctx ?funs:(Option.map Work.ft_funs widx) ?pool doc in
  let compiled = compile doc b.queries in
  let pairs =
    List.concat_map
      (fun (id, c) ->
        let e = Hashtbl.find expect id in
        List.filter_map
          (fun mode ->
            if mode = Work.Materialize && e.Work.e_materialize = "-" then None
            else Some (new_pair id mode c e))
          Work.all_modes)
      compiled
  in
  warm_up ctx pairs;
  let rounds = measure ctx ~seconds ~trace pairs in
  let index_bytes =
    (Document.space_bits doc / 8)
    + match widx with Some w -> Sxsi_wordindex.Word_index.space_bits w / 8 | None -> 0
  in
  let qps field mode =
    Stats.geomean (List.filter_map (fun p -> if p.mode = mode then Some (pair_rate (field p)) else None) pairs)
  in
  let f x = J.Float x in
  let e2e field =
    [
      ("count_qps", f (qps field Work.Count));
      ("select_qps", f (qps field Work.Select));
      ("materialize_qps", f (qps field Work.Materialize));
    ]
  in
  (* latency over the battery, each (query, mode) pair one request at
     its rate's mean: the median pair, and as the tail the
     slowest pair, since the battery has too few pairs for a p99 with
     samples beyond it.  Sustained: evaluations per second of a client
     that cycles through the pairs, one evaluation of each in turn. *)
  let latencies = List.map (fun p -> 1.0 /. pair_rate p.rates) pairs in
  let untraced =
    [
      ("setup_s", f (Stats.median setups));
      ( "index_bytes_per_doc_byte",
        f (float_of_int index_bytes /. float_of_int (String.length xml)) );
    ]
    @ e2e (fun p -> p.rates)
    @ [
        ("latency_p50_ms", f (Stats.median latencies *. 1e3));
        ("latency_p99_ms", f (List.fold_left Float.max 0.0 latencies *. 1e3));
        ("sustained_qps", f (float_of_int (List.length latencies) /. List.fold_left ( +. ) 0.0 latencies));
      ]
  in
  let layer_metrics =
    if not trace then []
    else begin
      let ls =
        layers ~seed ~xml ~work ~wl ~build ~setup_build_s:(Stats.median builds) ~queries:b.queries
          ~compiled ctx pairs
      in
      let overhead =
        100.0
        *. (1.0
           -. Stats.geomean
                (List.map
                   (fun p -> pair_rate p.traced_rates /. pair_rate p.rates)
                   pairs))
      in
      ls @ [ ("trace.overhead_pct", overhead) ] @ self_times ()
    end
  in
  let j =
    J.Obj
      [
        ("workload", J.String wl);
        ("seed", J.Int seed);
        ("facts", J.Obj (facts ~doc ~pool));
        ("e2e", J.Obj untraced);
        ("e2e_traced", J.Obj (if trace then e2e (fun p -> p.traced_rates) else []));
        ("setup_samples_s", J.List (List.map f setups));
        ("latency_basis",
          J.String
            (Printf.sprintf "%d (query, mode) pairs at their rounds' lower quartile; the tail is the slowest pair"
               (List.length pairs)));
        ("rounds", J.Int rounds);
        ( "pairs",
          J.List
            (List.map
               (fun p ->
                 J.Obj
                   [
                     ("id", J.String p.id);
                     ("mode", J.String (Work.mode_name p.mode));
                     ("rates", J.List (List.rev_map f p.rates));
                   ])
               pairs) );
        ("attempted", J.Int ctx.attempted);
        ("failed", J.Int ctx.failed);
        ("errors", J.List (List.map (fun s -> J.String s) ctx.errors));
        ("layers", J.Obj (List.map (fun (k, v) -> (k, f v)) layer_metrics));
      ]
  in
  Work.write_file out (J.to_string j);
  if trace then Spans.write (out ^ ".spans");
  Option.iter Sxsi_par.Pool.shutdown pool
