#!/usr/bin/env bash
# Flight-recorder stress for `sxsi serve`.
#
# A server with the journal enabled and a 1ms slow-query threshold
# (every query is made "slow" by an injected 5ms engine delay) must:
#   - write a valid JSON-lines slow-query log whose entries carry the
#     request, its duration, and reconstructed spans;
#   - answer DUMP with a journal payload that `sxsi trace-export`
#     converts into Chrome trace_event JSON holding spans from the
#     engine, pool, and service categories.
# The exported trace is left at $TRACE_OUT (default trace.json) so CI
# can upload it as an artifact.
set -euo pipefail

if command -v opam > /dev/null 2>&1; then
  opam exec -- dune build bin/sxsi.exe
else
  dune build bin/sxsi.exe
fi
SXSI=_build/default/bin/sxsi.exe
TRACE_OUT=${TRACE_OUT:-trace.json}

workdir=$(mktemp -d)
server_pid=""
trap '[ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null; rm -rf "$workdir"' EXIT

printf '<site><item><v>1</v></item><item><v>2</v></item><item><v>3</v></item></site>\n' \
  > "$workdir/doc.xml"

# 4 evaluation domains so the pool's task/park spans land in the
# journal; the 5ms injected delay guarantees every query crosses the
# 1ms slow threshold without a deadline in the way.
SXSI_DOMAINS=4 SXSI_FAILPOINTS="engine.eval=delay:5" \
  "$SXSI" serve -p 0 \
  --flight-recorder --slow-ms 1 --slow-log "$workdir/slow.jsonl" \
  --load "doc=$workdir/doc.xml" 2> "$workdir/server.log" &
server_pid=$!

port=""
for _ in $(seq 1 100); do
  port=$(sed -n 's/.*listening on [^:]*:\([0-9][0-9]*\)$/\1/p' "$workdir/server.log" | head -1)
  [ -n "$port" ] && break
  sleep 0.1
done
if [ -z "$port" ]; then
  echo "FAIL: server never reported a listening port" >&2
  cat "$workdir/server.log" >&2
  exit 1
fi

# ask <line>...: one connection, one request per argument, responses on
# stdout (one line each; COUNT answers on a single OK/ERR line).
ask() {
  exec 3<> "/dev/tcp/127.0.0.1/$port"
  local line
  for line in "$@"; do printf '%s\n' "$line" >&3; done
  printf 'QUIT\n' >&3
  head -n "$#" <&3
  exec 3<&- 3>&-
}

# A burst of queries to populate the journal and the slow log.
for _ in $(seq 1 10); do
  resp=$(ask "COUNT doc //item")
  case "$resp" in
    "OK"*) ;;
    *) echo "FAIL: COUNT answered: $resp" >&2; exit 1 ;;
  esac
done

# Capture the DUMP response raw (DATA framing and all): trace-export
# strips it.
exec 3<> "/dev/tcp/127.0.0.1/$port"
printf 'DUMP\nQUIT\n' >&3
: > "$workdir/dump.txt"
while IFS= read -r l <&3; do
  l=${l%$'\r'}
  printf '%s\n' "$l" >> "$workdir/dump.txt"
  [ "$l" = "." ] && break
done
exec 3<&- 3>&-

kill "$server_pid"
wait "$server_pid" 2> /dev/null || true
server_pid=""

# The slow log must be non-empty valid JSON lines with the documented
# keys, and at least one entry must carry reconstructed spans.
python3 - "$workdir/slow.jsonl" << 'EOF'
import json, sys
entries = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
assert entries, "slow log is empty"
for e in entries:
    for key in ("ts_ns", "request", "duration_ms", "status"):
        assert key in e, f"slow-log entry missing {key}: {e}"
assert any(e.get("spans") for e in entries), "no entry carries spans"
print(f"slow log OK: {len(entries)} entries")
EOF

# The dump converts to a Chrome trace with spans from every layer.
"$SXSI" trace-export "$workdir/dump.txt" -o "$TRACE_OUT"
python3 - "$TRACE_OUT" << 'EOF'
import json, sys
trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
assert events, "trace has no events"
cats = {e.get("cat") for e in events if e.get("ph") in ("X", "i")}
for want in ("engine", "pool", "service"):
    assert want in cats, f"no {want} spans in trace (got {sorted(cats)})"
print(f"chrome trace OK: {len(events)} events, categories {sorted(cats)}")
EOF

echo "PASS: slow log valid, trace exported to $TRACE_OUT"
