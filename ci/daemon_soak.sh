#!/usr/bin/env bash
# Daemon soak / chaos run: N concurrent mixed-dialect sessions against
# one asyncclockd under a memory budget small enough to force
# evictions, plus one SIGKILL + restart with client resync,
# one poisoned session (interleaved dialect), and a SIGTERM drain.
# Every healthy session's report must be byte-identical to a
# single-shot `trace_analyzer analyze` over the same bytes, and the
# poisoned session must quarantine without touching a neighbor.
#
# Usage: ci/daemon_soak.sh <trace_analyzer-binary> [workdir]
set -eu

BIN=${1:?usage: daemon_soak.sh <trace_analyzer> [workdir]}
WORK=${2:-$(mktemp -d /tmp/daemon_soak.XXXXXX)}
SESSIONS=${SESSIONS:-32}
# Far below the hot working set of the looper sessions, comfortably
# above one session's residency: the LRU ladder must keep evicting
# cold sessions without thrashing the ones making progress (resume
# replays the spool from op 0, so a budget below a single session's
# footprint degrades to quadratic replay).
MEM_BUDGET=${MEM_BUDGET:-64M}

mkdir -p "$WORK/state"
cd "$WORK"

fail() { echo "daemon_soak: FAIL: $*" >&2; exit 1; }

# However the run ends (a failed check or a failed command), stop the
# daemon and feed clients it started, so none is left serving.
DAEMON_PID=""
FEED_PIDS=""
cleanup() {
    for pid in $FEED_PIDS $DAEMON_PID; do
        kill -9 "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    done
}
trap cleanup EXIT

# ----- traces and single-shot baselines --------------------------------
echo "== generating traces + baselines"
"$BIN" gen Firefox looper_a.trace 0.15 >/dev/null
"$BIN" gen K9Mail looper_b.trace 0.2 >/dev/null
"$BIN" gen AsyncTree async_a.trace 2 >/dev/null
"$BIN" gen AsyncPipeline async_b.trace 2 >/dev/null
for t in looper_a looper_b async_a async_b; do
    "$BIN" analyze "$t.trace" --report-out="$t.baseline" >/dev/null
done

trace_for() {  # session index -> trace stem (mixed dialects)
    case $(( $1 % 4 )) in
        0) echo looper_a ;;
        1) echo async_a ;;
        2) echo looper_b ;;
        *) echo async_b ;;
    esac
}

start_daemon() {
    "$BIN" daemon --port=0 --state-dir=state --workers=4 \
        --mem-budget="$MEM_BUDGET" --queue-chunks=4 \
        --events-out="$1" > daemon.out 2>&1 &
    DAEMON_PID=$!
    for _ in $(seq 1 100); do
        PORT=$(sed -n 's/.*127\.0\.0\.1:\([0-9]*\).*/\1/p' \
            daemon.out | head -1)
        [ -n "$PORT" ] && break
        sleep 0.1
    done
    [ -n "$PORT" ] || fail "daemon did not start: $(cat daemon.out)"
    echo "== daemon pid $DAEMON_PID on port $PORT"
}

# ----- phase 1: concurrent sessions under memory pressure --------------
start_daemon events1.jsonl

echo "== feeding $SESSIONS concurrent session(s)"
# The fault-injected sessions are pinned to looper traces: their
# faults fire at specific 32 KiB chunk indices, and the async traces
# are small enough to fit in a single chunk (the fault would never
# trigger).
for i in $(seq 1 "$SESSIONS"); do
    t=$(trace_for "$i")
    if [ "$i" -eq 7 ]; then
        # Poisoned session: a valid looper start, then the async
        # dialect spliced in mid-stream. Must quarantine alone.
        "$BIN" feed looper_a.trace --port="$PORT" --session="sess$i" \
            --chunk-bytes=32768 --interleave-file=async_a.trace \
            --inject=sess-interleave=3 \
            > "feed$i.log" 2>&1 &
    elif [ "$i" -eq 9 ]; then
        # Session-level chaos that must NOT affect the report:
        # mid-body disconnect + duplicate create.
        "$BIN" feed looper_b.trace --port="$PORT" --session="sess$i" \
            --chunk-bytes=32768 --report-out="sess$i.report" \
            --inject=sess-disconnect=2,sess-dup=4 \
            > "feed$i.log" 2>&1 &
    elif [ "$i" -eq 11 ]; then
        # Left unfinished: survives the SIGKILL below and resyncs.
        "$BIN" feed looper_a.trace --port="$PORT" --session="sess$i" \
            --chunk-bytes=32768 --no-finish > "feed$i.log" 2>&1 &
        RESYNC_TRACE=looper_a
    else
        "$BIN" feed "$t.trace" --port="$PORT" --session="sess$i" \
            --chunk-bytes=32768 --report-out="sess$i.report" \
            > "feed$i.log" 2>&1 &
    fi
    FEED_PIDS="$FEED_PIDS $!"
done
FEED_FAILS=0
for pid in $FEED_PIDS; do
    wait "$pid" || FEED_FAILS=$((FEED_FAILS + 1))
done
FEED_PIDS=""
# Exactly one feed is allowed to fail: the poisoned session exits 3.
[ "$FEED_FAILS" -le 1 ] || fail "$FEED_FAILS feed client(s) failed"

echo "== scrape endpoints"
curl -fsS "http://127.0.0.1:$PORT/healthz" | grep -q '"status":"ok"' \
    || fail "healthz"
curl -fsS "http://127.0.0.1:$PORT/metrics" > metrics1.txt
grep -q 'asyncclock_daemon_reports_total' metrics1.txt \
    || fail "metrics missing daemon counters"

EVICTIONS=$(sed -n \
    's/^asyncclock_daemon_evictions_total \([0-9]*\)$/\1/p' \
    metrics1.txt)
echo "== evictions so far: ${EVICTIONS:-0} (need >= 8)"
[ "${EVICTIONS:-0}" -ge 8 ] \
    || fail "mem budget forced only ${EVICTIONS:-0} eviction(s)"

# Poisoned session quarantined, neighbors untouched.
curl -fsS "http://127.0.0.1:$PORT/v1/sessions/sess7" \
    | grep -q '"state":"quarantined"' || fail "sess7 not quarantined"
grep -q "quarantined" feed7.log || fail "feed7 missed the 410"

# ----- phase 2: SIGKILL + restart + resync -----------------------------
echo "== SIGKILL daemon mid-flight (sess11 unfinished)"
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""
start_daemon events2.jsonl

"$BIN" feed "$RESYNC_TRACE.trace" --port="$PORT" --session=sess11 \
    --chunk-bytes=32768 --report-out=sess11.report \
    > feed11b.log 2>&1
grep -q "rejoining sess11" feed11b.log \
    || fail "client did not resync after restart"
# Quarantine must survive the restart too.
curl -fsS "http://127.0.0.1:$PORT/v1/sessions/sess7" \
    | grep -q '"state":"quarantined"' \
    || fail "sess7 quarantine lost across restart"

# ----- verdict: byte-identity for every healthy session ----------------
echo "== diffing reports against single-shot baselines"
for i in $(seq 1 "$SESSIONS"); do
    [ "$i" -eq 7 ] && continue  # poisoned by design
    case $i in
        9) t=looper_b ;;
        11) t=looper_a ;;
        *) t=$(trace_for "$i") ;;
    esac
    cmp "sess$i.report" "$t.baseline" \
        || fail "sess$i report differs from single-shot baseline"
done
echo "== all $((SESSIONS - 1)) healthy reports byte-identical"

# ----- phase 3: graceful drain -----------------------------------------
echo "== SIGTERM drain"
kill -TERM "$DAEMON_PID"
DRAIN_RC=0
wait "$DAEMON_PID" || DRAIN_RC=$?
DAEMON_PID=""
[ "$DRAIN_RC" -eq 0 ] || fail "drain exited $DRAIN_RC"
grep -q "drained; exiting" daemon.out || fail "no drain message"

echo "daemon_soak: PASS ($SESSIONS sessions, ${EVICTIONS} evictions,"\
     "1 quarantine, 1 SIGKILL+resync, clean drain)"
