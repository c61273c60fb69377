#!/usr/bin/env bash
# Serve-mode benchmark: starts `dca serve --jobs 2` on a unix socket
# plus a TCP port (both speak HTTP), fans CLIENTS `dca client`
# processes over the socket and CURLS curl clients over TCP at the
# same figure, and asserts
#   (a) every report is byte-identical across clients and listeners
#       AND matches what offline `dca figures` writes to
#       results/sampling.md,
#   (b) the daemon computed ONCE — dedup_hits == CLIENTS+CURLS-1,
#   (c) the daemon shuts down cleanly: exit 0, socket unlinked, TCP
#       port closed, no leaked lock files or .tmp-* temps,
#   (d) a restarted daemon over the same store serves the figure
#       warm — zero fast-forward instructions, zero recomputed
#       intervals, byte-identical body.
# Records the cold and warm request latencies in BENCH_serve.json.
#
# Usage: scripts/bench_serve.sh [output.json]
#   DCA_BIN  dca binary                     (default target/release/dca)
#   SCALE    figure scale                   (default paper)
#   CLIENTS  `dca client` processes (unix)  (default 4)
#   CURLS    curl clients (TCP)             (default 4)
set -euo pipefail

OUT="${1:-BENCH_serve.json}"
case "$OUT" in /*) ;; *) OUT="$PWD/$OUT" ;; esac
BIN="${DCA_BIN:-target/release/dca}"
case "$BIN" in /*) ;; *) BIN="$PWD/$BIN" ;; esac
SCALE="${SCALE:-paper}"
N="${CLIENTS:-4}"
C="${CURLS:-4}"
TMP="$(mktemp -d)"
SOCK="$TMP/dca.sock"
STORE="$TMP/store"
SRV=""
cleanup() {
  [ -n "$SRV" ] && kill "$SRV" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

[ -x "$BIN" ] || { echo "error: $BIN not built (cargo build --release -p dca-cli)" >&2; exit 1; }
command -v curl >/dev/null || { echo "error: curl not available" >&2; exit 1; }

# Starts the daemon; parses the ephemeral TCP port from its stderr
# progress line ("serve: http on 127.0.0.1:PORT").
start_daemon() {
  "$BIN" serve --listen "$SOCK" --http-addr 127.0.0.1:0 --jobs 2 \
    --store-dir "$STORE" 2>"$TMP/serve.log" &
  SRV=$!
  HTTP=""
  for _ in $(seq 1 100); do
    if [ -S "$SOCK" ]; then
      HTTP=$(grep -o 'serve: http on [0-9.:]*' "$TMP/serve.log" | head -1 | awk '{print $4}')
      [ -n "$HTTP" ] && return
    fi
    sleep 0.1
  done
  echo "FAIL: daemon did not bind both listeners:" >&2
  cat "$TMP/serve.log" >&2
  exit 1
}

# Shuts the daemon down over the socket and checks it left nothing.
stop_daemon() {
  "$BIN" client --addr "$SOCK" --shutdown -q >/dev/null
  if ! wait "$SRV"; then
    echo "FAIL: daemon exited non-zero" >&2
    exit 1
  fi
  SRV=""
  if [ -e "$SOCK" ]; then
    echo "FAIL: daemon left its socket file behind" >&2
    exit 1
  fi
  if curl -s --max-time 2 "http://$HTTP/v1/ping" >/dev/null 2>&1; then
    echo "FAIL: TCP port still answering after shutdown" >&2
    exit 1
  fi
  LEAKED=$(find "$STORE" \( -name '*.lock' -o -name '.tmp-*' \) 2>/dev/null | wc -l)
  if [ "$LEAKED" -ne 0 ]; then
    echo "FAIL: $LEAKED leaked lock/temp file(s) after shutdown:" >&2
    find "$STORE" \( -name '*.lock' -o -name '.tmp-*' \) >&2
    exit 1
  fi
}

PAYLOAD='{"figure": "sampling", "args": ["--scale", "'"$SCALE"'"]}'

# One curl client: submit, poll to completion, fetch the report.
curl_fetch() { # outfile
  local resp job
  resp=$(curl -sS -X POST -H 'content-type: application/json' \
    --data "$PAYLOAD" "http://$HTTP/v1/figures")
  job=$(printf '%s' "$resp" | grep -o '"job":[0-9]*' | grep -o '[0-9]*$')
  [ -n "$job" ] || { echo "FAIL: submit reply lacks a job id: $resp" >&2; return 1; }
  until curl -sS "http://$HTTP/v1/jobs/$job" | grep -q '"state":"done"'; do
    sleep 0.2
  done
  curl -sS -o "$1" "http://$HTTP/v1/jobs/$job/result"
}

# ---- cold: N + C concurrent clients, one computation ----------------
start_daemon
T0=$(date +%s%N)
pids=()
for i in $(seq 1 "$N"); do
  "$BIN" client --addr "$SOCK" --figure sampling \
    --out "$TMP/cold-$i.md" --json-out "$TMP/cold-$i.json" -q \
    -- --scale "$SCALE" &
  pids+=("$!")
done
for i in $(seq 1 "$C"); do
  curl_fetch "$TMP/curl-$i.md" &
  pids+=("$!")
done
for p in "${pids[@]}"; do wait "$p"; done
T1=$(date +%s%N)

# (a) every client saw the same bytes, on either listener...
for f in "$TMP"/cold-*.md "$TMP"/curl-*.md; do
  if ! cmp -s "$TMP/cold-1.md" "$f"; then
    echo "FAIL: $(basename "$f") differs from cold-1.md" >&2
    diff "$TMP/cold-1.md" "$f" >&2 || true
    exit 1
  fi
done
# ...identical to what offline `dca figures` writes.
mkdir -p "$TMP/offline"
(cd "$TMP/offline" && "$BIN" figures sampling --scale "$SCALE" --no-store -q \
  >/dev/null 2>"$TMP/offline.log")
if ! cmp -s "$TMP/cold-1.md" "$TMP/offline/results/sampling.md"; then
  echo "FAIL: served report differs from offline dca figures output" >&2
  diff "$TMP/cold-1.md" "$TMP/offline/results/sampling.md" >&2 || true
  exit 1
fi

# (b) one computation: every other request coalesced onto it.
DEDUP=$("$BIN" client --addr "$SOCK" --stats \
  | grep -o '"dedup_hits": [0-9]*' | grep -o '[0-9]*$')
if [ "$DEDUP" -ne $((N + C - 1)) ]; then
  echo "FAIL: expected $((N + C - 1)) dedup hits for $((N + C)) identical requests, got $DEDUP" >&2
  exit 1
fi

# (c) clean shutdown, nothing leaked.
stop_daemon

# ---- warm: a restarted daemon serves from the store ------------------
start_daemon
T2=$(date +%s%N)
"$BIN" client --addr "$SOCK" --figure sampling \
  --out "$TMP/warm.md" --json-out "$TMP/warm.json" -q \
  -- --scale "$SCALE"
T3=$(date +%s%N)
curl_fetch "$TMP/warm-curl.md"
stop_daemon

# (d) warm means warm: no fast-forward, no recompute, same bytes.
for want in '"warm": true' '"ff_insts": 0' '"intervals_computed": 0'; do
  if ! grep -qF "$want" "$TMP/warm.json"; then
    echo "FAIL: warm request summary lacks $want:" >&2
    cat "$TMP/warm.json" >&2
    exit 1
  fi
done
for f in "$TMP/warm.md" "$TMP/warm-curl.md"; do
  if ! cmp -s "$TMP/cold-1.md" "$f"; then
    echo "FAIL: warm report $(basename "$f") differs from the cold one" >&2
    diff "$TMP/cold-1.md" "$f" >&2 || true
    exit 1
  fi
done

read -r COLD_MS WARM_MS <<<"$(awk -v c=$((T1 - T0)) -v w=$((T3 - T2)) \
  'BEGIN { printf "%.1f %.1f", c / 1e6, w / 1e6 }')"
cat >"$OUT" <<JSON
{
  "benchmark": "dca serve --jobs 2 (figure sampling --scale $SCALE, $N unix + $C tcp clients)",
  "unix_clients": $N,
  "tcp_clients": $C,
  "jobs": 2,
  "cold_latency_ms": $COLD_MS,
  "warm_latency_ms": $WARM_MS,
  "dedup_hits": $DEDUP,
  "reports_byte_identical": true,
  "matches_offline_figures": true,
  "warm_zero_recompute": true,
  "clean_shutdown": true
}
JSON
cat "$OUT"
echo "OK: $N unix + $C tcp clients, 1 computation ($DEDUP coalesced), clean shutdown, warm restart with zero recompute"
