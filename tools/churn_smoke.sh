#!/usr/bin/env bash
# Churn soak: one tycod serving an echo service under steady load must
# keep a bounded heap. Every rpc request ships a fresh reply channel, so
# the server interns one netref per request; the heap-growth trigger
# (Site::collect_if_grown, DESIGN.md §7) has to free them while the
# daemon is serving, since it never reaches quiescence under load.
#
#   * tycoload drives the service open-loop at a fixed rate for 6 s;
#   * /metrics is scraped every 250 ms; for the server's
#     site_vm_live_{channels,netrefs,exports} gauges, the highest reading
#     of the last two seconds must stay within twice the highest of the
#     first two seconds of load and under a fixed bound (a plateau, not
#     a ramp);
#   * site_gc_growth_collections_total must have moved;
#   * after the load, `tycotop --audit` must join balanced, and tycod,
#     left to exit on its own once idle, must exit 0 (no errors, no
#     export entry left after its final GC epoch; under ASan, no leak).
#
# site_vm_rel_ledger_entries is printed, not gated: tycoload's reply
# channels carry no credit, so it stays 0 here, but a credit-carrying
# client adds one ledger entry per request for good (DESIGN.md §7).
#
# Used by CI; run locally as
#   tools/churn_smoke.sh [tycod] [tycoload] [tycotop]
set -u

TYCOD="${1:-build/tools/tycod}"
TYCOLOAD="${2:-build/tools/tycoload}"
TYCOTOP="${3:-build/tools/tycotop}"
for bin in "$TYCOD" "$TYCOLOAD" "$TYCOTOP"; do
  if [ ! -x "$bin" ]; then
    echo "churn_smoke: no binary at $bin" >&2
    exit 2
  fi
done

RATE=1000
DURATION_MS=6000
BOUND=4096

OUT="$(mktemp)"
LOAD="$(mktemp)"
SAMPLES="$(mktemp)"
AUDIT="$(mktemp)"
trap 'kill -9 "$PID" "$LPID" 2>/dev/null;
      rm -f "$OUT" "$LOAD" "$SAMPLES" "$AUDIT"' EXIT
LPID=""

scrape() {
  # First match of sed pattern $2 in log $1 while pid $3 stays alive.
  local log="$1" pat="$2" pid="$3" got=""
  for _ in $(seq 1 100); do
    got="$(sed -n "$pat" "$log" | head -n 1)"
    [ -n "$got" ] && { echo "$got"; return 0; }
    kill -0 "$pid" 2>/dev/null || return 1
    sleep 0.1
  done
  return 1
}

SRV='export new svc in def Serve(self) = self?{ val(x, r) = (r![x + 1] | Serve[self]) } in Serve[svc]'
"$TYCOD" --node 0 --monitor 0 --idle-exit-ms 3000 --serve-ms 60000 \
  -e "site server { $SRV }" >"$OUT" 2>&1 &
PID=$!
PORT="$(scrape "$OUT" 's#^tycod node[0-9]* listening on 127\.0\.0\.1:\([0-9]*\)$#\1#p' "$PID")" || {
  echo "churn_smoke: tycod never announced a port:" >&2
  cat "$OUT" >&2
  exit 1
}
MON="$(scrape "$OUT" 's#^tycomon listening on http://127\.0\.0\.1:\([0-9]*\)$#\1#p' "$PID")" || {
  echo "churn_smoke: tycod never announced a monitor:" >&2
  cat "$OUT" >&2
  exit 1
}
echo "churn_smoke: tycod up (transport :$PORT, monitor :$MON)"

"$TYCOLOAD" --join "127.0.0.1:$PORT" --import server:svc --scenario rpc \
  --rate "$RATE" --duration-ms "$DURATION_MS" --timeout-ms 1500 \
  --json >"$LOAD" 2>&1 &
LPID=$!

# One JSON line per scrape: seconds since the load started, then the
# server's heap gauges and growth counter.
python3 - "$MON" "$DURATION_MS" "$SAMPLES" <<'EOF'
import json, re, sys, time, urllib.request
mon, duration, path = sys.argv[1], int(sys.argv[2]) / 1000.0, sys.argv[3]
names = ("site_vm_live_channels", "site_vm_live_netrefs",
         "site_vm_live_exports", "site_vm_rel_ledger_entries",
         "site_gc_growth_collections_total")
t0 = time.monotonic()
with open(path, "w") as out:
    while time.monotonic() - t0 < duration:
        try:
            text = urllib.request.urlopen(
                f"http://127.0.0.1:{mon}/metrics", timeout=5).read().decode()
        except OSError:
            text = ""
        row = {"t": round(time.monotonic() - t0, 3)}
        for n in names:
            m = re.search(n + r'\{site="server"\} (\d+)', text)
            row[n] = int(m.group(1)) if m else None
        out.write(json.dumps(row) + "\n")
        out.flush()
        time.sleep(0.25)
EOF
wait "$LPID"
LOADRC=$?
LPID=""
if [ "$LOADRC" -ne 0 ]; then
  echo "churn_smoke: tycoload exited $LOADRC:" >&2
  cat "$LOAD" >&2
  exit 1
fi

fail=0
python3 - "$LOAD" "$SAMPLES" "$BOUND" <<'EOF' || fail=1
import json, sys
rep = json.loads(open(sys.argv[1]).read().strip().splitlines()[-1])
rows = [json.loads(l) for l in open(sys.argv[2])]
bound = int(sys.argv[3])
assert rep["completed"] > 0, "no request ever completed"
assert rep["failed"] <= rep["completed"] // 100, \
    f"{rep['failed']} of {rep['completed'] + rep['failed']} requests failed"
gauges = ("site_vm_live_channels", "site_vm_live_netrefs",
          "site_vm_live_exports")
rows = [r for r in rows if all(r[g] is not None for g in gauges)]
assert rows, "the server's heap gauges never appeared on /metrics"
# The first two seconds count from the first scrape that shows load
# (a slow start must not make the early reading look small).
busy = [r["t"] for r in rows if r["site_vm_live_netrefs"] > 0]
assert busy, "the server never held a netref: no load reached it"
first = [r for r in rows if busy[0] <= r["t"] <= busy[0] + 2.0]
last = [r for r in rows if r["t"] >= rows[-1]["t"] - 2.0]
assert len(first) >= 4 and last[0]["t"] > first[-1]["t"], \
    f"{len(rows)} scrapes, load first seen at {busy[0]} s: no two windows"
for g in gauges:
    early = max(r[g] for r in first)
    late = max(r[g] for r in last)
    print(f"churn_smoke: {g}: max {early} in the first 2 s of load, "
          f"{late} in the last 2 s")
    assert late <= max(2 * early, 8) and late <= bound, \
        f"{g} did not plateau: {early} -> {late} (bound {bound})"
growth = rows[-1]["site_gc_growth_collections_total"] or 0
assert growth > 0, "no growth-triggered collection while serving"
print(f"churn_smoke: {rep['completed']} requests, {growth} growth "
      f"collections, REL ledger {rows[-1]['site_vm_rel_ledger_entries']} "
      f"entries")
EOF

# tycoload releases its name-service credit on exit; the owner applies
# the REL asynchronously, so poll until the audit joins balanced.
balanced=0
for _ in $(seq 1 50); do
  if "$TYCOTOP" --audit "http://127.0.0.1:$MON" >"$AUDIT" 2>/dev/null; then
    balanced=1
    break
  fi
  sleep 0.1
done
if [ "$balanced" -ne 1 ]; then
  echo "churn_smoke: the audit never joined balanced after the load:" >&2
  cat "$AUDIT" >&2
  fail=1
else
  echo "churn_smoke: audit balanced after the load"
fi

# Idle since the load ended, tycod runs its final GC epoch and exits.
for _ in $(seq 1 300); do
  kill -0 "$PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$PID" 2>/dev/null; then
  echo "churn_smoke: tycod did not exit after the load" >&2
  fail=1
else
  wait "$PID"
  RC=$?
  if [ "$RC" -ne 0 ]; then
    echo "churn_smoke: tycod exited $RC:" >&2
    cat "$OUT" >&2
    fail=1
  else
    grep '^-- gc:' "$OUT" | sed 's/^/churn_smoke: tycod /'
  fi
fi

if [ "$fail" -eq 0 ]; then
  echo "churn_smoke: OK (heap plateaued under churn, credit balanced)"
fi
exit "$fail"
