#!/usr/bin/env python3
"""Repository benchmark: end-to-end and per-layer metrics of SXSI.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--scale F]

Run from the repository root.  Builds the program from source with dune,
generates the workload's inputs from the seed, measures for S seconds,
checks every answer, and prints a human-readable report followed by one
JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list.  Workloads and metric definitions are in
perfbench/README.md; metric targets in perfbench/metrics.json.
"""

import argparse
import json
import math
import os
import shutil
import signal
import socket
import subprocess
import sys
import time

import statistics

WORKLOADS = ("xmark-tree", "medline-text", "logs-grammar", "serve-mixed")
HERE = os.path.dirname(os.path.abspath(__file__))
PERF = os.path.join("_build", "default", "perfbench", "perf.exe")
SXSI = os.path.join("_build", "default", "bin", "sxsi.exe")
CHILD_TIMEOUT = 150
SERVE_SESSION_S = 5


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def clean_env():
    # the benchmark measures the program's defaults: no SXSI_* overrides
    return {k: v for k, v in os.environ.items() if not k.startswith("SXSI_")}


def run_child(cmd, env, timeout=CHILD_TIMEOUT):
    """Run a child to completion; returns (exit status, peak RSS in MB)."""
    p = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    deadline = time.monotonic() + timeout
    try:
        while True:
            pid, status, usage = os.wait4(p.pid, os.WNOHANG)
            if pid == p.pid:
                p.returncode = os.waitstatus_to_exitcode(status)
                return p.returncode, usage.ru_maxrss / 1024.0
            if time.monotonic() > deadline:
                fail("timed out: " + " ".join(cmd), 3)
            time.sleep(0.01)
    finally:
        if p.returncode is None:
            p.kill()
            os.wait4(p.pid, 0)
            p.returncode = -9


def build(env):
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perf.exe", "./bin/sxsi.exe"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        fail("build failed:\n" + r.stderr[-4000:], 3)


def start_server(work, env):
    """Start `sxsi serve` at its defaults with the saved indexes; returns
    (process, port, seconds until the first query was answered)."""
    log = open(os.path.join(work, "serve.log"), "w")
    t0 = time.perf_counter()
    p = subprocess.Popen(
        [SXSI, "serve", "--port", "0",
         "--load", "x=" + os.path.join(work, "x.sxsi"),
         "--load", "m=" + os.path.join(work, "m.sxsi")],
        env=env, stdout=subprocess.DEVNULL, stderr=log)
    log.close()
    port = None
    deadline = time.monotonic() + 60
    while port is None:
        if p.poll() is not None or time.monotonic() > deadline:
            stop_server(p)
            fail("server did not start", 3)
        with open(os.path.join(work, "serve.log")) as f:
            for line in f:
                if "listening on" in line:
                    port = int(line.rsplit(":", 1)[1])
        if port is None:
            time.sleep(0.002)
    with socket.create_connection(("127.0.0.1", port)) as s:
        s.sendall(b"COUNT x /site/regions\n")
        reply = s.makefile().readline()
    if not reply.startswith("OK"):
        stop_server(p)
        fail("server answered " + reply.strip(), 3)
    return p, port, time.perf_counter() - t0


def stop_server(p):
    """Stop the server and reap it; returns its peak RSS in MB."""
    if p.poll() is None:
        p.send_signal(signal.SIGTERM)
    try:
        _, _, usage = os.wait4(p.pid, 0)
        p.returncode = 0
        return usage.ru_maxrss / 1024.0
    except ChildProcessError:
        return float("nan")


def measure_serve(workload, seed, seconds, trace, work, env, out):
    setups = []
    server = None
    try:
        # at least 3 starts and 1 s of them (at most 15), for a steady median
        while True:
            server, port, t = start_server(work, env)
            setups.append(t)
            if len(setups) >= 15 or (len(setups) >= 3 and sum(setups) >= 1.0):
                break
            stop_server(server)
            server = None
        code, _ = run_child(
            [PERF, "run", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--work", work, "--out", out, "--port", str(port)], env)
    finally:
        rss = stop_server(server) if server is not None else float("nan")
    return code, rss, setups


def measure(workload, seed, seconds, trace, scale, env):
    """Generate one workload's inputs and measure it; returns (the
    program's result, peak RSS in MB, server set-up samples or None)."""
    work = os.path.abspath(os.path.join(".perfbench", "%s-%d-%d" % (workload, seed, os.getpid())))
    os.makedirs(work, exist_ok=True)
    out = os.path.join(work, "result.json")
    try:
        code, _ = run_child(
            [PERF, "gen", "--workload", workload, "--seed", str(seed),
             "--scale", str(scale), "--work", work], env)
        if code != 0:
            fail("input generation failed", 3)
        if workload == "serve-mixed":
            code, rss, setups = measure_serve(workload, seed, seconds, trace, work, env, out)
        else:
            code, rss = run_child(
                [PERF, "run", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace),
                 "--work", work, "--out", out], env)
            setups = None
        if code != 0 or not os.path.exists(out):
            fail("measurement failed (exit %d)" % code, 3)
        with open(out) as f:
            res = json.load(f)
        # keep the full result (per-pair rounds, probes) for inspection
        shutil.copyfile(out, os.path.join(".perfbench", "%s.result.json" % workload))
        if trace:
            # keep the traced run's spans (JSON lines) for inspection
            spans = os.path.join(".perfbench", "%s.spans.jsonl" % workload)
            shutil.copyfile(out + ".spans", spans)
            res["spans_file"] = spans
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return res, rss, setups


def load_metrics_spec():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "metrics.json")) as f:
        spec = json.load(f)
    return bench, spec


def fmt(v):
    return "%.6g" % v if isinstance(v, float) else str(v)


def main():
    # a SIGTERM unwinds through the finally blocks, which stop the server
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input-size multiplier (1 = the benchmark; smaller for smoke runs)")
    args = ap.parse_args()

    for needed in ("dune-project", "lib", os.path.join("bin", "sxsi.ml"), "BENCHMARK.json"):
        if not os.path.exists(needed):
            fail("run from the repository root: %s not found" % needed)
    bench, spec = load_metrics_spec()
    env = clean_env()
    build(env)

    res, rss, setups = measure(args.workload, args.seed, args.seconds, args.trace, args.scale, env)
    if args.trace and args.workload == "xmark-tree":
        # The service, evloop and loadgen layers show only under a
        # server: a short serve-mixed session (XMark and Medline behind
        # `sxsi serve`), its answers checked like the rest.  serve-mixed
        # is not in BENCHMARK.json: its rates follow the host's drift
        # too closely to meet the bounds (README.md, Noise).
        served, _, _ = measure("serve-mixed", args.seed, SERVE_SESSION_S, 0, args.scale, env)
        res["serve_layers"] = served["serve_layers"]
        res["attempted"] += served["attempted"]
        res["failed"] += served["failed"]
        res["errors"] = res.get("errors", []) + served.get("errors", [])

    e2e = dict(res["e2e"])
    if setups is not None:
        res["setup_samples_s"] = setups
        e2e["setup_s"] = statistics.median(setups)
    e2e["peak_rss_mb"] = rss
    attempted, failed = res["attempted"], res["failed"]
    e2e["error_rate"] = failed / max(1, attempted)
    layers = dict(res.get("layers", {}))
    layers.update(res.get("serve_layers", {}) if args.trace else {})
    # BENCHMARK.json's units, and metrics.json's for the metrics it does not list
    units = dict(spec["units"])
    units.update((m["name"], m["unit"]) for m in bench["end_to_end"] + bench["per_layer"])

    print("perfbench %s seed=%d seconds=%g trace=%d scale=%g"
          % (args.workload, args.seed, args.seconds, args.trace, args.scale))
    print("facts: " + " ".join("%s=%s" % kv for kv in res["facts"].items()))
    print("setup samples (s): " + " ".join(fmt(x) for x in res["setup_samples_s"]))
    print("latency: " + res["latency_basis"])
    for e in res.get("errors", []):
        print("error: " + e)
    traced = res.get("e2e_traced", {})
    print("end-to-end:")
    for name in [m["name"] for m in bench["end_to_end"]] + ["error_rate"]:
        if name in e2e:
            extra = ("   traced %s" % fmt(traced[name])) if name in traced else ""
            print("  %-26s %14s %-6s%s" % (name, fmt(e2e[name]), units[name], extra))
    for p in res.get("probes", []):
        print("  probe rate=%.0f/s ok=%s n=%d p50=%.2fms p99=%.2fms"
              % (p["rate"], p["ok"], p["n"], p["p50_ms"], p["p99_ms"]))
    if not args.trace:
        for name, v in sorted(res.get("serve_layers", {}).items()):
            print("  %-26s %14s %s" % (name, fmt(v), units.get(name, "")))
    if args.trace:
        print("spans: " + res["spans_file"])
        print("per-layer:")
        for name in sorted(layers):
            print("  %-30s %14s %s" % (name, fmt(layers[name]), units.get(name, "us" if name.startswith("self.") else "")))

    wanted = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    source = e2e if args.trace == 0 else layers
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        fail("metrics not measured: " + ", ".join(missing), 4)
    invalid = [m["name"] for m in wanted if not math.isfinite(source[m["name"]])]
    if invalid:
        fail("metrics without a finite value: " + ", ".join(invalid), 4)
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
