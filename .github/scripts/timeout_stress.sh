#!/usr/bin/env bash
# Timeout stress for `sxsi serve`.
#
# A server with a 50ms default deadline and an injected 80ms delay at
# the engine entry point must answer ERR DEADLINE for every query —
# promptly, not after a hang — and its shard executor must survive to
# serve the next connection.  A session that clears the deadline with
# `DEADLINE 0` then gets a healthy answer despite the delay, proving
# the executor was reused rather than replaced or wedged.
set -euo pipefail

if command -v opam > /dev/null 2>&1; then
  opam exec -- dune build bin/sxsi.exe
else
  dune build bin/sxsi.exe
fi
SXSI=_build/default/bin/sxsi.exe

workdir=$(mktemp -d)
server_pid=""
trap '[ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null; rm -rf "$workdir"' EXIT

printf '<site><item><v>1</v></item><item><v>2</v></item><item><v>3</v></item></site>\n' \
  > "$workdir/doc.xml"

SXSI_FAILPOINTS="engine.eval=delay:80" \
  "$SXSI" serve -p 0 --timeout 50 \
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
# stdout (one line each; QUERY/COUNT answer on a single OK/ERR line).
ask() {
  exec 3<> "/dev/tcp/127.0.0.1/$port"
  local line
  for line in "$@"; do printf '%s\n' "$line" >&3; done
  printf 'QUIT\n' >&3
  head -n "$#" <&3
  exec 3<&- 3>&-
}

start=$(date +%s%N)
resp=$(ask "QUERY doc //item")
elapsed_ms=$(( ($(date +%s%N) - start) / 1000000 ))
echo "deadline response after ${elapsed_ms}ms: $resp"
case "$resp" in
  "ERR DEADLINE"*) ;;
  *) echo "FAIL: expected ERR DEADLINE, got: $resp" >&2; exit 1 ;;
esac
if [ "$elapsed_ms" -ge 2000 ]; then
  echo "FAIL: ERR DEADLINE took ${elapsed_ms}ms; expected a prompt reply" >&2
  exit 1
fi

# Same executor, next connection: clearing the session deadline must let
# the (still delayed) query complete.  COUNT answers on a single OK
# line (QUERY success uses the multi-line DATA form).
resp=$(ask "DEADLINE 0" "COUNT doc //item" | tail -1)
echo "post-clear response: $resp"
case "$resp" in
  "OK"*) ;;
  *) echo "FAIL: executor did not serve a healthy request after a deadline miss: $resp" >&2
     exit 1 ;;
esac

echo "PASS: deadline enforced promptly and executor reused"
