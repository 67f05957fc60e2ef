open Sxsi_obs

type t = {
  requests : Counter.t;
  errors : Counter.t;
  compiled_hits : Counter.t;
  compiled_misses : Counter.t;
  count_hits : Counter.t;
  count_misses : Counter.t;
  connections_opened : Counter.t;
  connections_closed : Counter.t;
  connections_shed : Counter.t;
  deadline_errors : Counter.t;
  budget_errors : Counter.t;
  breaker_rejections : Counter.t;
  latency : Histogram.t;
  admission_wait : Histogram.t;
}

let create () =
  {
    requests = Counter.create ();
    errors = Counter.create ();
    compiled_hits = Counter.create ();
    compiled_misses = Counter.create ();
    count_hits = Counter.create ();
    count_misses = Counter.create ();
    connections_opened = Counter.create ();
    connections_closed = Counter.create ();
    connections_shed = Counter.create ();
    deadline_errors = Counter.create ();
    budget_errors = Counter.create ();
    breaker_rejections = Counter.create ();
    latency = Histogram.create ();
    admission_wait = Histogram.create ();
  }

let record_latency t ns = Histogram.record t.latency ns

let record_admission_wait t ns = Histogram.record t.admission_wait ns

let ms ns = float_of_int ns /. 1e6

let quantile_ms h q = Printf.sprintf "%.3f" (Histogram.quantile h q /. 1e6)

let to_assoc t ~doc_evictions =
  let q = quantile_ms in
  [
    ("requests", string_of_int (Counter.get t.requests));
    ("errors", string_of_int (Counter.get t.errors));
    ("compiled_hits", string_of_int (Counter.get t.compiled_hits));
    ("compiled_misses", string_of_int (Counter.get t.compiled_misses));
    ("count_hits", string_of_int (Counter.get t.count_hits));
    ("count_misses", string_of_int (Counter.get t.count_misses));
    ("connections_opened", string_of_int (Counter.get t.connections_opened));
    ("connections_closed", string_of_int (Counter.get t.connections_closed));
    ("connections_shed", string_of_int (Counter.get t.connections_shed));
    ("deadline_errors", string_of_int (Counter.get t.deadline_errors));
    ("budget_errors", string_of_int (Counter.get t.budget_errors));
    ("breaker_rejections", string_of_int (Counter.get t.breaker_rejections));
    ("doc_evictions", string_of_int doc_evictions);
    ("latency_ms_total", Printf.sprintf "%.3f" (ms (Histogram.sum t.latency)));
    ("latency_p50_ms", q t.latency 0.5);
    ("latency_p95_ms", q t.latency 0.95);
    ("latency_p99_ms", q t.latency 0.99);
    ("admission_wait_ms_total", Printf.sprintf "%.3f" (ms (Histogram.sum t.admission_wait)));
    ("admission_wait_p95_ms", q t.admission_wait 0.95);
  ]
