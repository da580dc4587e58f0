#!/usr/bin/env bash
# Observability smoke test: run a small checkpointed, aggregated sweep
# with the live telemetry plane attached and assert every surface of it
# works end to end — the /progress schema, the run-identity and
# runtime self-metric families on /metrics, a live /events SSE capture,
# the persisted events.jsonl, and the rendered HTML sweep report.
# This is the executable form of the observability contract (DESIGN §15).
set -euo pipefail

GO=${GO:-go}
ARGS=(grid -platform 24-Intel-2-V100 -scale 2 -seed 7)
HOLD=${HOLD:-6s}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

$GO build -o "$work/capbench" ./cmd/capbench

echo "obs-smoke: sweep with live telemetry (hold $HOLD)" >&2
# Create the log first: the backgrounded redirection may not have opened
# it yet when the address poll below first reads it.
: > "$work/run.err"
"$work/capbench" "${ARGS[@]}" -parallel 2 -checkpoint "$work/ck" \
    -agg-dir "$work/agg" -metrics-addr 127.0.0.1:0 -hold "$HOLD" \
    > "$work/run.txt" 2> "$work/run.err" &
pid=$!

# The server binds :0; its resolved address appears on stderr.
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's#^telemetry: serving .* on http://##p' "$work/run.err" | head -1)
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "obs-smoke: FAIL — telemetry endpoint never came up" >&2
    cat "$work/run.err" >&2
    exit 1
fi
echo "obs-smoke: endpoint at $addr" >&2

# Capture the SSE stream while the sweep runs.
curl -sN --max-time 4 "http://$addr/events" > "$work/events.sse" &
ssepid=$!

curl -s "http://$addr/progress" > "$work/progress.json"
for field in cells_total cells_done percent cells_per_sec elapsed_seconds; do
    if ! grep -q "\"$field\"" "$work/progress.json"; then
        echo "obs-smoke: FAIL — /progress missing $field" >&2
        cat "$work/progress.json" >&2
        exit 1
    fi
done

curl -s "http://$addr/metrics" > "$work/metrics.txt"
for metric in capsim_run_info capsim_runtime_goroutines capsim_obs_events_total; do
    if ! grep -q "$metric" "$work/metrics.txt"; then
        echo "obs-smoke: FAIL — /metrics missing $metric" >&2
        exit 1
    fi
done

wait "$ssepid" || true
if ! grep -q '^data: ' "$work/events.sse"; then
    echo "obs-smoke: FAIL — /events stream carried no events" >&2
    cat "$work/events.sse" >&2
    exit 1
fi

wait "$pid"

if ! [ -s "$work/agg/events.jsonl" ]; then
    echo "obs-smoke: FAIL — events.jsonl not written to the agg dir" >&2
    exit 1
fi

echo "obs-smoke: rendering the sweep report" >&2
"$work/capbench" report -agg-dir "$work/agg" -checkpoint "$work/ck" \
    -report-out "$work/report.html"
for want in "capsim sweep report" "Efficiency heatmap" "Resume timeline"; do
    if ! grep -q "$want" "$work/report.html"; then
        echo "obs-smoke: FAIL — report missing '$want'" >&2
        exit 1
    fi
done
echo "obs-smoke: OK — /progress schema, run-info labels, SSE stream, event log and report all present" >&2
