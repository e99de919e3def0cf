#!/usr/bin/env bash
# Build, lint, test, run every smoke, refresh BENCH_pipeline.json, and
# hold each gated entry to its committed value.
#
# Usage: scripts/bench-check.sh
#
# Fails on a format, lint or rustdoc warning, a build error, an example,
# test or rfibench test failure, a smoke that diverges from its reference,
# and on any of these gates:
#   - hot_path_allocs: the quiet stage-graph hot path allocates 0 times,
#     and across two retention trims (trim_allocs) no more than committed;
#   - stroke_allocs (per span), stroke_tick_allocs (per stroke-bearing
#     call), reader_allocs (per read) and codec_allocs (per BATCH encode,
#     per BATCH decode, across a trace's refills): at most committed;
#   - tick_frames (frames a framing tick hands segmentation at 25-27 s of
#     history) and trim_frames (frames built per retention trim of the
#     quiet stream): at most committed;
#   - tick_history (a push's cost at 25-27 s of history over its cost at
#     3-5 s, timed in one process): at most 1.5;
#   - telemetry_overhead: an instrumented golden-trace replay costs at
#     most 3% over one with telemetry off;
#   - serve_loopback: reports_per_s at least 0.6 of committed, on more
#     than one core (the cores load_gen records in its own entry).
# All but the last two are exact counts or a ratio, so the host's speed
# does not move them. Speed claims come from rfibench's alternating
# parent/change runs (rfibench/README.md), not from this script.

set -euo pipefail
cd "$(dirname "$0")/.."

# Baselines must be read before the probes rewrite BENCH_pipeline.json.
# Prefer the committed copy; fall back to the working tree for trees
# without git history.
baseline=$(git show HEAD:BENCH_pipeline.json 2>/dev/null || cat BENCH_pipeline.json 2>/dev/null || true)

# per_unit <entry> <field>: one numeric field of one top-level entry (the
# file is one entry per line), read from stdin; empty if the entry does
# not exist.
per_unit() {
  sed -n "s/^ *\"$1\":.*\"$2\": \([0-9.]*\).*/\1/p" | head -n 1
}
base_serve=$(per_unit serve_loopback reports_per_s <<<"$baseline")
base_stroke_allocs=$(per_unit stroke_allocs allocs_per_span <<<"$baseline")
base_stroke_tick_allocs=$(per_unit stroke_tick_allocs allocs_per_call <<<"$baseline")
base_reader_allocs=$(per_unit reader_allocs allocs_per_read <<<"$baseline")
base_tick_frames=$(per_unit tick_frames long_frames_per_tick <<<"$baseline")
base_trim_frames=$(per_unit trim_frames frames_per_trim <<<"$baseline")
base_trim_allocs=$(per_unit hot_path_allocs trim_allocs <<<"$baseline")
base_codec_encode=$(per_unit codec_allocs encode_allocs <<<"$baseline")
base_codec_decode=$(per_unit codec_allocs decode_allocs <<<"$baseline")
base_codec_refill=$(per_unit codec_allocs refill_allocs <<<"$baseline")

echo "== format =="
cargo fmt --check

echo "== lints =="
cargo clippy --all-targets -- -D warnings

echo "== docs (warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# --locked: a manifest edit that would rewrite a Cargo.lock (the root one
# or rfibench's) fails here instead of silently changing the lock the
# benchmark builds from.
echo "== build (release) =="
cargo build --release --workspace --locked

echo "== examples (each asserts its own outcome) =="
for example in quickstart airport_kiosk live_kiosk virtual_keyboard deployment_planner; do
  cargo run --release --locked -q -p experiments --example "$example"
done

echo "== tests =="
cargo test -q --locked

echo "== benchmark harness (builds against the workspace crates) =="
# rfibench is a package of its own outside the workspace; building and
# testing it here keeps API refactors from silently breaking the benchmark.
CARGO_TARGET_DIR=target/rfibench cargo test --release --offline --locked --manifest-path rfibench/Cargo.toml

echo "== allocation and work gates (kernel_bench) =="
# Feeds a quiet synthetic session through the pipeline, recognizes every
# span of the golden session, replays it through a fresh stage graph,
# records it through the simulated reader, encodes, decodes and reads its
# reports as BATCH frames and a binary trace, all under a counting global
# allocator, and times pushes over a short and a long quiet history and
# counts the frames framing hands over per tick in both, and the frames a
# retention trim builds. Merges the hot_path_allocs, stroke_allocs,
# stroke_tick_allocs, reader_allocs, codec_allocs, tick_history,
# tick_frames and trim_frames entries; all are gated below.
cargo run --release -p bench --features count-allocs --bin kernel_bench

echo "== health/debug endpoint smoke (live engine) =="
# A tiny load_gen run serves the engine's endpoint and holds the process
# alive after the drain; the probes must see 200s and JSON that Python's
# own parser accepts. The session's flight-recorder dump is saved and
# rendered by `trace_tool spans`, so a real served dump meets the Rust
# dump reader end to end. Runs before the full serve smoke so the 4×2
# run's serve_loopback and serve_e2e_latency entries are the ones left in
# BENCH_pipeline.json.
probe_port=${PROBE_PORT:-7939}
probe_dump=$(mktemp)
trap 'rm -f "$probe_dump"' EXIT
cargo run --release -p experiments --bin load_gen -- --connections 1 --sessions 1 \
  --metrics-addr "127.0.0.1:${probe_port}" --hold 10 &
probe_pid=$!
if ! python3 - "$probe_port" "$probe_dump" <<'PY'
import json, sys, time, urllib.error, urllib.request

base = "http://127.0.0.1:" + sys.argv[1]
deadline = time.time() + 60
while True:
    try:
        with urllib.request.urlopen(base + "/healthz", timeout=2) as r:
            if r.status != 200:
                sys.exit(f"bench-check: /healthz answered {r.status}")
        break
    except (urllib.error.URLError, ConnectionError, OSError):
        if time.time() > deadline:
            sys.exit("bench-check: /healthz never came up")
        time.sleep(0.2)
with urllib.request.urlopen(base + "/readyz", timeout=2) as r:
    if r.status != 200:
        sys.exit(f"bench-check: /readyz answered {r.status}")
for route in ("/debug/journal", "/stats.json"):
    with urllib.request.urlopen(base + route, timeout=2) as r:
        if r.status != 200:
            sys.exit(f"bench-check: {route} answered {r.status}")
        try:
            json.loads(r.read().decode())
        except ValueError as e:
            sys.exit(f"bench-check: {route} is not valid JSON: {e}")
# load_gen's only connection is c0 and its only session pad-0; the
# recorder answers 404 until that session opens.
deadline = time.time() + 30
while True:
    try:
        with urllib.request.urlopen(base + "/debug/trace/c0%23pad-0", timeout=2) as r:
            dump = r.read().decode()
        break
    except (urllib.error.URLError, ConnectionError, OSError):
        if time.time() > deadline:
            sys.exit("bench-check: /debug/trace/c0%23pad-0 never answered 200")
        time.sleep(0.2)
try:
    json.loads(dump)
except ValueError as e:
    sys.exit(f"bench-check: /debug/trace/c0%23pad-0 is not valid JSON: {e}")
with open(sys.argv[2], "w") as f:
    f.write(dump)
print("healthz/readyz/debug-journal/stats.json/debug-trace probes: OK")
PY
then
  kill "$probe_pid" 2>/dev/null || true
  wait "$probe_pid" 2>/dev/null || true
  exit 1
fi
wait "$probe_pid"
cargo run --release -p experiments --bin trace_tool -- spans "$probe_dump"

echo "== serve smoke (golden trace over loopback TCP, bit-identical) =="
# load_gen starts an in-process ingest server, replays the golden trace
# over 4 concurrent connections × 2 multiplexed sessions each, verifies
# every served session against the single-stream replay, and merges the
# serve_loopback entry. A divergence is a hard failure.
cargo run --release -p experiments --bin load_gen -- --connections 4 --sessions 2

echo "== telemetry exposition smoke + overhead -> BENCH_pipeline.json =="
# `stats` self-validates the exposition (names/labels well-formed, no
# duplicate series) and exits nonzero on a malformed render; --bench merges
# the telemetry_overhead entry (instrumented vs RFIPAD_LOG=off replay).
expo=$(cargo run --release -p experiments --bin trace_tool -- \
  stats tests/data/golden_session.rftrace --bench)
for family in rfid_reader_reads_total rfipad_hop_seconds_bucket \
  rfipad_pipeline_reports_total; do
  grep -q "^$family" <<<"$expo" || {
    echo "bench-check: exposition is missing $family" >&2
    exit 1
  }
done
# Every stage that runs on a tick is timed under the default sampler. Grammar
# runs only for the golden session's three events, which may all fall on
# unsampled ticks.
for stage in framing segmentation motion letter; do
  count=$(sed -n "s/^rfipad_hop_seconds_count{hop=\"stage:$stage\"} \([0-9]*\)$/\1/p" \
    <<<"$expo")
  [ "${count:-0}" -gt 0 ] || {
    echo "bench-check: stage:$stage was never timed (count ${count:-missing})" >&2
    exit 1
  }
done
grep -q '"telemetry_overhead"' BENCH_pipeline.json || {
  echo "bench-check: telemetry_overhead entry missing from BENCH_pipeline.json" >&2
  exit 1
}
# Hard budget: instrumented replay may cost at most 3% over telemetry-off.
overhead=$(sed -n 's/^ *"telemetry_overhead":.*"overhead_pct": \(-\{0,1\}[0-9.]*\).*/\1/p' \
  BENCH_pipeline.json | head -n 1)
awk -v o="${overhead:-100}" 'BEGIN { exit !(o <= 3.0) }' || {
  echo "bench-check: telemetry overhead ${overhead}% exceeds the 3% budget" >&2
  exit 1
}
echo "telemetry overhead ${overhead}% (budget 3%): OK"

echo "== checkpoint/restore smoke (mid-trace migration) =="
cargo run --release -p experiments --bin trace_tool -- \
  checkpoint tests/data/golden_session.rftrace

echo "== allocation, work and serve gates =="
# Zero-allocation gate: steady-state per-tick processing must not touch
# the heap. Any nonzero count means a recycled buffer or scratch arena
# stopped being reused.
hot_allocs=$(sed -n 's/^ *"hot_path_allocs": { "allocs": \([0-9]*\).*/\1/p' \
  BENCH_pipeline.json | head -n 1)
if [ -z "$hot_allocs" ]; then
  echo "bench-check: hot_path_allocs entry missing from BENCH_pipeline.json" >&2
  exit 1
fi
if [ "$hot_allocs" -ne 0 ]; then
  echo "bench-check: hot path performed ${hot_allocs} allocations in the" \
    "steady-state window; the per-tick path must be allocation-free" >&2
  exit 1
fi
echo "hot_path_allocs ${hot_allocs}: OK"

# Per-unit count gates, each entry against its own committed value.
gate_count() { # entry field unit baseline what noun
  local entry=$1 field=$2 unit=$3 base=$4 what=$5 noun=$6 fresh
  fresh=$(per_unit "$entry" "$field" <BENCH_pipeline.json)
  if [ -z "$fresh" ]; then
    echo "bench-check: $entry entry missing from BENCH_pipeline.json" >&2
    exit 1
  fi
  if [ -z "$base" ]; then
    echo "$entry ${fresh}/$unit (no committed baseline; gate skipped)"
    return
  fi
  awk -v f="$fresh" -v b="$base" 'BEGIN { exit !(f <= b) }' || {
    echo "bench-check: $what made ${fresh} $noun per $unit," \
      "above the committed ${base}" >&2
    exit 1
  }
  echo "$entry ${fresh}/$unit (committed ${base}): OK"
}
# The quiet stream above never reaches the motion stage, so
# recognize_span over the golden session's spans is counted separately.
gate_count stroke_allocs allocs_per_span span "$base_stroke_allocs" recognize_span allocations
# A whole stroke-bearing tick adds the span hand-off, letter assembly and
# the grammar: every graph call that emits a stroke, counted per call.
gate_count stroke_tick_allocs allocs_per_call call "$base_stroke_tick_allocs" \
  "a stroke-bearing StageGraph call" allocations
# Nor does any pipeline gate see the simulator: recording the golden
# session through the reader is counted per read.
gate_count reader_allocs allocs_per_read read "$base_reader_allocs" Bench::record_session \
  allocations
# The record codec: one buffer per encoded BATCH, the session id and the
# report vector per decoded one, and nothing per trace refill, where each
# record is decoded in place from the reader's buffer.
gate_count codec_allocs encode_allocs frame "$base_codec_encode" \
  "encode_frame_v of a 64-report BATCH" allocations
gate_count codec_allocs decode_allocs frame "$base_codec_decode" \
  "decode_payload_v of a 64-report BATCH" allocations
gate_count codec_allocs refill_allocs trace "$base_codec_refill" \
  "TraceSource::next_batch(64) over the golden trace" allocations
# Framing hands segmentation one shared frame sequence and the count of
# frames unchanged since the previous tick, so the frames a tick changes
# stay the live tail however long the history: an exact count, no clock.
gate_count tick_frames long_frames_per_tick tick "$base_tick_frames" \
  "framing over 25-27 s of history" "changed frames"
# A retention trim drops a prefix of the history in place and recomputes
# only the frame the cut falls inside, so the frames it builds (with its
# tick's own settled frame) stay a couple, however long the history; a
# trim that replays the buffer builds some 300. And the in-place drop
# allocates nothing: the quiet hot path's second window spans two trims.
gate_count trim_frames frames_per_trim trim "$base_trim_frames" \
  "a retention trim of the quiet stream" "frames built"
gate_count hot_path_allocs trim_allocs window "$base_trim_allocs" \
  "the quiet hot path across two retention trims" allocations

# History gate: a tick re-scores only the frames it changed, so a push may
# cost at most 1.5x more over 25-27 s of buffered history than over 3-5 s.
# A ratio of two timings on one host cancels the host's speed.
history_ratio=$(sed -n 's/^ *"tick_history":.*"ratio": \([0-9.]*\).*/\1/p' \
  BENCH_pipeline.json | head -n 1)
if [ -z "$history_ratio" ]; then
  echo "bench-check: tick_history entry missing from BENCH_pipeline.json" >&2
  exit 1
fi
awk -v r="$history_ratio" 'BEGIN { exit !(r <= 1.5) }' || {
  echo "bench-check: a push over 25-27 s of history costs ${history_ratio}x" \
    "one over 3-5 s (limit 1.5); per-tick work grows with the history" >&2
  exit 1
}
echo "tick_history ratio ${history_ratio} (limit 1.5): OK"

# Serve throughput gate: the loopback replay must hold 0.6 of its
# committed reports_per_s, one fixed fraction (changing it takes a diff).
# Skipped on one core, where client threads, connection threads and engine
# workers all contend for the same CPU and the number measures the
# scheduler, not the server. The core count is the one load_gen recorded
# in the entry it just wrote.
serve_cores=$(per_unit serve_loopback cores <BENCH_pipeline.json)
fresh_serve=$(per_unit serve_loopback reports_per_s <BENCH_pipeline.json)
if [ -z "$fresh_serve" ]; then
  echo "bench-check: serve_loopback entry missing from BENCH_pipeline.json" >&2
  exit 1
fi
if [ "${serve_cores:-1}" -le 1 ]; then
  echo "serve_loopback throughput gate skipped: cores=${serve_cores:-1}"
elif [ -z "$base_serve" ]; then
  echo "serve_loopback: ${fresh_serve} reports/s (no committed baseline; gate skipped)"
else
  serve_floor=$(awk -v b="$base_serve" 'BEGIN { printf "%d", b * 0.6 }')
  if [ "$fresh_serve" -lt "$serve_floor" ]; then
    echo "bench-check: serve_loopback regressed to ${fresh_serve} reports/s" \
      "(committed ${base_serve}, floor ${serve_floor} at 0.6) on ${serve_cores} cores" >&2
    exit 1
  fi
  echo "serve_loopback: ${fresh_serve} reports/s (committed ${base_serve}," \
    "floor ${serve_floor}) on ${serve_cores} cores: OK"
fi

echo "bench-check: OK"
