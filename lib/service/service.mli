(** The query service: a document registry plus compiled-query and
    result-count caches behind one lock, driven by {!Protocol}
    requests.

    Threading model: every handler is safe to call from any domain.
    Registry and cache bookkeeping happen under the service lock;
    document parsing/loading and query evaluation run outside it, so
    requests against warm caches execute concurrently (the engine's
    shared hash-consing tables are internally synchronized and cached
    compiled queries are {!Sxsi_core.Engine.precompile}d before they
    are published).

    Resource governance: query verbs ([QUERY], [COUNT], [MATERIALIZE],
    [TRACE]) run under a {!Sxsi_qos.Budget.t} derived from the request's
    effective deadline (the session's [DEADLINE] override, else
    {!options.default_deadline_ms}) and the configured result/byte
    caps, and under a per-document {!Sxsi_qos.Breaker.t} when
    {!options.breaker_threshold} is positive.  Overruns surface as
    [ERR DEADLINE] / [ERR BUDGET]; an open breaker refuses the request
    up front with [ERR BREAKER ... retry-after-ms=<n>].  See
    {!Protocol.err_code}. *)

type t

type options = {
  max_doc_bytes : int;      (* registry byte budget *)
  compiled_cache : int;     (* compiled-query LRU capacity; 0 disables *)
  count_cache : int;        (* result-count LRU capacity; 0 disables *)
  enable_jump : bool;       (* engine knobs, part of the cache key *)
  enable_memo : bool;
  enable_early : bool;
  optimize : bool;
      (* run the whole-query {!Sxsi_auto.Optimize} pass when compiling
         queries (default); part of the cache key, so flipping it
         never mixes optimized and raw automata in one cache.  [STATS]
         reports the setting ([optimize]) and the process-wide
         [opt_automata] / [opt_states_removed] /
         [opt_transitions_removed] tallies *)
  domains : int;            (* evaluation pool size; <= 1 means sequential *)
  default_deadline_ms : int;
      (* per-request deadline applied when the session has not set one
         with [DEADLINE]; 0 means none *)
  max_results : int;        (* per-request result-count cap; 0 means none *)
  max_result_bytes : int;   (* per-request serialized-output cap; 0 means none *)
  breaker_threshold : int;
      (* consecutive deadline overruns that open a document's circuit
         breaker; 0 disables breakers *)
  breaker_cooldown_ms : int;  (* how long an open breaker refuses requests *)
  slow_ms : int;
      (* requests slower than this are written to the slow-query log
         (when one was passed to [create]); 0 disables the log *)
  backend : Sxsi_xml.Document.backend option;
      (* tree backend for documents indexed by [LOAD] (None defers to
         SXSI_BACKEND / the build default); pre-built [.sxsi] files
         keep the backend they were saved with *)
}

val default_options : options

val create : ?options:options -> ?slow_log:Sxsi_obs.Slowlog.t -> unit -> t
(** With [options.domains > 1] the service owns a {!Sxsi_par.Pool.t}
    shared by document builds ([LOAD]) and query evaluation; its task
    and steal counters join the metrics exposition.

    [slow_log] is the slow-query log's sink: every request slower than
    [options.slow_ms] milliseconds appends one JSON line ([ts_ns],
    [request], [duration_ms], [status] and — when the
    {!Sxsi_obs.Journal} flight recorder is enabled — the request's
    reconstructed [spans]).  The service closes the sink on
    {!shutdown}. *)

val pool : t -> Sxsi_par.Pool.t option

val service_metrics : t -> Metrics.t
(** The live counters, for front ends that account connections. *)

val slow_log : t -> Sxsi_obs.Slowlog.t option

val shutdown : t -> unit
(** Join the evaluation pool's domains, if any, and close the
    slow-query log.  Call once no request is in flight; idempotent. *)

val register_exposition : t -> (Sxsi_obs.Exposition.t -> unit) -> unit
(** Run a registration callback against the service's exposition under
    the service lock — how a front end with its own instrumentation
    (the event loop's turn and coalescing counters) joins [METRICS]. *)

val register_runtime : t -> Sxsi_obs.Runtime.t -> unit
(** Register a runtime sampler's GC/journal series
    ({!Sxsi_obs.Runtime.register}) on the service exposition. *)

val add_document : t -> string -> Sxsi_xml.Document.t -> unit
(** Register an already-built document (bench and test entry point;
    the [LOAD] request is this plus file IO). *)

val handle :
  ?deadline_ms:int -> ?elapsed_ns:int -> t -> Protocol.request -> Protocol.response
(** Execute one request, updating metrics (request and error counters,
    the latency histogram, cache counters).

    [deadline_ms] overrides [options.default_deadline_ms] for this
    request (a session's [DEADLINE] setting; 0 disables the deadline
    entirely).  [elapsed_ns] is time the request already spent before
    reaching the service — its wait for the shard executor — and is
    charged against the deadline, so a request that queued past its
    deadline fails with [ERR DEADLINE] before doing any work.  Budget overruns inside
    evaluation surface as [ERR DEADLINE] / [ERR BUDGET]; open circuit
    breakers as [ERR BREAKER]; tripped failpoints as [ERR INJECTED]. *)

val handle_line :
  ?deadline_ms:int -> ?elapsed_ns:int -> t -> string -> Protocol.response
(** Parse and execute one request line; parse errors become [ERR]
    responses and count as errored requests.  Optional arguments as in
    {!handle}. *)

val reject : t -> Protocol.response -> Protocol.response
(** Account a request that was refused before reaching {!handle} (an
    oversized request line, a shed connection): bump the request and —
    for [Err] — error counters, and return the response unchanged. *)

val record_admission_wait : t -> int -> unit
(** Record one request's wait for the shard executor (nanoseconds) in
    the admission-wait histogram. *)

val histograms : t -> Sxsi_obs.Histogram.t * Sxsi_obs.Histogram.t
(** Copies of the request-latency and admission-wait histograms, taken
    under the service lock — what [Shards.stats] merges to compute
    percentiles across shards. *)

val profile_response : Sxsi_prof.Prof.snapshot -> Protocol.response
(** Render the profile window that opened at [since] as the [PROFILE]
    response: a [Data] block whose first line is the
    {!Sxsi_prof.Prof.to_json} report and whose remaining lines are the
    collapsed-stack ({!Sxsi_prof.Prof.to_folded}) output.  The TCP
    front end cannot afford to block an executor for the window: it
    takes its own snapshot up front and calls this from a loop timer.
    Only the blocking [repl] session sleeps inside {!handle}. *)

val stats : t -> (string * string) list
(** The same key=value pairs the [STATS] request reports. *)

val metrics_text : t -> string
(** The service metrics in the Prometheus text exposition format — the
    body of the [METRICS] response: request/error/cache counters, the
    request-latency histogram, and live registry/cache gauges. *)

val trace : ?budget:Sxsi_qos.Budget.t -> t -> string -> string -> Sxsi_obs.Trace.t
(** [trace t doc query] evaluates the query once with tracing on and
    returns the trace (phase timings, engine and index counters, a
    [cache_hit] flag).  The [TRACE] request renders this as one JSON
    line.  Bypasses the result-count cache: the point is to watch the
    query execute.  Unknown documents and malformed queries raise the
    same internal exception the other query paths use, which {!handle}
    turns into an [ERR] response. *)
