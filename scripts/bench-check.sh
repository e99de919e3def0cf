#!/usr/bin/env bash
# Perf gate: build, test, quick-bench, and refresh BENCH_pipeline.json.
#
# Usage: scripts/bench-check.sh [--run-all]
#   --run-all   also time the full `run_all quick` roster serial vs parallel
#               (slower; produces the run_all_quick entry in the JSON)
#
# Fails on any build error, test failure, bench panic, throughput
# regression or allocation regression: the freshly measured `ingest_batch`
# and `incremental_framing` reports_per_s must stay within BENCH_TOLERANCE
# (default 0.6) of the committed BENCH_pipeline.json, the quiet hot path
# must not allocate, `stroke_allocs` may not exceed its committed
# allocations per span and `reader_allocs` its committed allocations per
# read. Parallel-speedup checks are skipped (not
# gated) on single-core machines, where "parallel" has nothing to win.
# Criterion sample time is kept short via CRITERION_SAMPLE_MS so the pass
# stays quick.

set -euo pipefail
cd "$(dirname "$0")/.."

# Baselines must be read before the benches rewrite BENCH_pipeline.json.
# Prefer the committed copy; fall back to the working tree for trees
# without git history.
baseline=$(git show HEAD:BENCH_pipeline.json 2>/dev/null || cat BENCH_pipeline.json 2>/dev/null || true)

# baseline_rps <key>: the committed reports_per_s for one top-level entry
# (the file is one entry per line), empty if the entry does not exist yet.
baseline_rps() {
  sed -n "s/^ *\"$1\":.*\"reports_per_s\": \([0-9]*\).*/\1/p" <<<"$baseline" | head -n 1
}
base_ingest=$(baseline_rps ingest_batch)
base_framing=$(baseline_rps incremental_framing)
base_serve=$(baseline_rps serve_loopback)

# per_unit_allocs <entry> <field>: one entry's allocations per unit (span,
# read), read from stdin; empty if the entry does not exist.
per_unit_allocs() {
  sed -n "s/^ *\"$1\":.*\"$2\": \([0-9.]*\).*/\1/p" | head -n 1
}
base_stroke_allocs=$(per_unit_allocs stroke_allocs allocs_per_span <<<"$baseline")
base_reader_allocs=$(per_unit_allocs reader_allocs allocs_per_read <<<"$baseline")

echo "== format =="
cargo fmt --check

echo "== lints =="
cargo clippy --all-targets -- -D warnings

echo "== docs (warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== build (release) =="
cargo build --release --workspace

echo "== tests =="
cargo test -q

echo "== benchmark harness (builds against the workspace crates) =="
# rfibench is a package of its own outside the workspace; building and
# testing it here keeps API refactors from silently breaking the benchmark.
CARGO_TARGET_DIR=target/rfibench cargo test --release --offline --manifest-path rfibench/Cargo.toml

echo "== quick criterion pass (observe cache + pipeline) =="
CRITERION_SAMPLE_MS=${CRITERION_SAMPLE_MS:-150} cargo bench -p bench --bench observe_cache
CRITERION_SAMPLE_MS=${CRITERION_SAMPLE_MS:-150} cargo bench -p bench --bench pipeline

echo "== perf trajectory -> BENCH_pipeline.json =="
cargo run --release -p experiments --bin bench_pipeline -- "${1:-}"

echo "== multi-session engine smoke (8 golden-trace replays) =="
cargo run --release -p experiments --bin engine_bench -- --sessions 8

echo "== kernel microbench + allocation gates =="
# Runs the sigproc kernel suite against the naive references, feeds a
# quiet synthetic session through the pipeline, recognizes every span of
# the golden session and records the golden session through the simulated
# reader, all under a counting global allocator. Merges the kernel_bench,
# hot_path_allocs, stroke_allocs and reader_allocs entries; all three
# allocation counts are gated below.
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
for family in rfid_reader_reads_total rfipad_stage_push_seconds_bucket \
  rfipad_pipeline_reports_total; do
  grep -q "^$family" <<<"$expo" || {
    echo "bench-check: exposition is missing $family" >&2
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

echo "== throughput regression gates =="
# Fresh values from the file the benches just rewrote.
fresh_rps() {
  sed -n "s/^ *\"$1\":.*\"reports_per_s\": \([0-9]*\).*/\1/p" BENCH_pipeline.json | head -n 1
}
tolerance=${BENCH_TOLERANCE:-0.6}
gate_rps() { # name fresh baseline
  local name=$1 fresh=$2 base=$3
  if [ -z "$fresh" ]; then
    echo "bench-check: $name entry missing from BENCH_pipeline.json" >&2
    exit 1
  fi
  if [ -z "$base" ]; then
    echo "$name: ${fresh} reports/s (no committed baseline; gate skipped)"
    return
  fi
  local floor
  floor=$(awk -v b="$base" -v t="$tolerance" 'BEGIN { printf "%d", b * t }')
  if [ "$fresh" -lt "$floor" ]; then
    echo "bench-check: $name regressed to ${fresh} reports/s" \
      "(committed ${base}, floor ${floor} at tolerance ${tolerance})" >&2
    exit 1
  fi
  echo "$name: ${fresh} reports/s (committed ${base}, floor ${floor}): OK"
}
gate_rps ingest_batch "$(fresh_rps ingest_batch)" "$base_ingest"
gate_rps incremental_framing "$(fresh_rps incremental_framing)" "$base_framing"

# Batched ingest must report real push latencies: close_with_stats captures
# the session counters after the worker drains, so a zero p50 means the
# recorder (or its final read) regressed.
ingest_p50=$(sed -n 's/^ *"ingest_batch":.*"push_p50_ns": \([0-9]*\).*/\1/p' \
  BENCH_pipeline.json | head -n 1)
if [ "${ingest_p50:-0}" -le 0 ]; then
  echo "bench-check: ingest_batch push_p50_ns is ${ingest_p50:-missing};" \
    "batched replays must record per-batch push latency" >&2
  exit 1
fi
echo "ingest_batch push_p50_ns ${ingest_p50}: OK"

# Kernel-layer speedup floor: the scratch-buffer rework must keep
# incremental_framing at >= 1.2x its pre-kernel throughput (the constant
# is the committed value from before the kernel layer landed).
kernel_base=4105290
kernel_floor=$(awk -v b="$kernel_base" 'BEGIN { printf "%d", b * 1.2 }')
fresh_framing=$(fresh_rps incremental_framing)
if [ "${fresh_framing:-0}" -lt "$kernel_floor" ]; then
  echo "bench-check: incremental_framing ${fresh_framing:-0} reports/s is below" \
    "the kernel-layer floor ${kernel_floor} (1.2x pre-kernel ${kernel_base})" >&2
  exit 1
fi
echo "incremental_framing kernel-layer floor ${kernel_floor} (1.2x ${kernel_base}): OK"

# Zero-allocation gate: steady-state per-tick processing must not touch
# the heap. Any nonzero count means a recycled buffer or scratch arena
# stopped being reused.
grep -q '"kernel_bench"' BENCH_pipeline.json || {
  echo "bench-check: kernel_bench entry missing from BENCH_pipeline.json" >&2
  exit 1
}
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

# Per-unit allocation gates, each entry against its own committed value.
gate_allocs() { # entry field unit baseline what
  local entry=$1 field=$2 unit=$3 base=$4 what=$5 fresh
  fresh=$(per_unit_allocs "$entry" "$field" <BENCH_pipeline.json)
  if [ -z "$fresh" ]; then
    echo "bench-check: $entry entry missing from BENCH_pipeline.json" >&2
    exit 1
  fi
  if [ -z "$base" ]; then
    echo "$entry ${fresh}/$unit (no committed baseline; gate skipped)"
    return
  fi
  awk -v f="$fresh" -v b="$base" 'BEGIN { exit !(f <= b) }' || {
    echo "bench-check: $what made ${fresh} allocations per $unit," \
      "above the committed ${base}" >&2
    exit 1
  }
  echo "$entry ${fresh}/$unit (committed ${base}): OK"
}
# The quiet stream above never reaches the motion stage, so
# recognize_span over the golden session's spans is counted separately.
gate_allocs stroke_allocs allocs_per_span span "$base_stroke_allocs" recognize_span
# Nor does any pipeline gate see the simulator: recording the golden
# session through the reader is counted per read.
gate_allocs reader_allocs allocs_per_read read "$base_reader_allocs" Bench::record_session

# Parallel-speedup sanity: only meaningful with more than one core.
cores=$(sed -n 's/^ *"cores": \([0-9]*\),*/\1/p' BENCH_pipeline.json | head -n 1)
if [ "${cores:-1}" -le 1 ]; then
  echo "parallel-speedup checks skipped: cores=${cores:-1}"
else
  speedup=$(sed -n 's/^ *"stroke_batch_13":.*"speedup": \([0-9.]*\).*/\1/p' BENCH_pipeline.json | head -n 1)
  awk -v s="${speedup:-0}" 'BEGIN { exit !(s >= 1.0) }' || {
    echo "bench-check: stroke_batch_13 parallel speedup ${speedup} < 1.0 on ${cores} cores" >&2
    exit 1
  }
  echo "stroke_batch_13 parallel speedup ${speedup} on ${cores} cores: OK"
fi

# Serve throughput gate: the loopback replay must hold its committed
# reports_per_s. Skipped on one core, where client threads, connection
# threads, and engine workers all contend for the same CPU and the
# number measures the scheduler, not the server.
if [ "${cores:-1}" -le 1 ]; then
  echo "serve_loopback throughput gate skipped: cores=${cores:-1}"
else
  gate_rps serve_loopback "$(fresh_rps serve_loopback)" "$base_serve"
fi

echo "bench-check: OK"
