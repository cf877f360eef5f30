#!/usr/bin/env bash
# Tier-1 CI gate: build + full ctest —
#   1. plain RelWithDebInfo over the whole suite,
#   2. ThreadSanitizer (COSMICDANCE_SANITIZE=thread) over the parallel exec
#      suite, which must be race-free for the deterministic-ordering
#      contract to mean anything; the batch SGP4 suite rides along so a
#      shared propagator driven from many threads (the pure-kernel contract,
#      DESIGN.md §16) is under the same lens, and so does the snapshot
#      suite, whose checksums run on pool workers and whose concurrent
#      savers race real writers over one cache entry,
#   3. ASan+UBSan (COSMICDANCE_SANITIZE=address) over the ingestion suites,
#      driving the malformed-record corpus through both parse policies so
#      buffer overreads in the fixed-column parsers surface here, and the
#      delta-snapshot differential suite so the incremental path's chain
#      walking and replay run under the same lens, and the serve suite so
#      hostile requests (a JSON nesting flood, garbage frames) that would
#      smash a stack or overread a buffer in the daemon fail the gate; the
#      obs and cdlint suites ride along because they too drive the JSON
#      reader (the tree's only one) over the writer's output.
#   4. observability smoke: the CLI with --metrics/--trace on the bundled
#      dataset (work counters must be bit-identical at --threads 1 vs 8,
#      per DESIGN.md §11, and the phase timings must name the same phases
#      at both) plus the micro_ingest and micro_sgp4 telemetry passes,
#      leaving build/BENCH_ingest.json and build/BENCH_sgp4.json behind as
#      CI artifacts.  The sgp4 record must clear a positions/s floor with zero
#      non-kOk statuses and a bit-identical threads=1 vs threads=N grid
#      (the batch determinism contract, DESIGN.md §16).  The ingest record
#      must show a warm-cache hit (ingest.cache_hit == 1) and an
#      append-aware delta hit that parsed only a small tail
#      (ingest.delta_hit == 1, delta_tail_fraction < 5%), clear the
#      absolute ingestion floors (cold parse >= 2M records/s — 2x the
#      PR 9 baseline — and a warm snapshot load >= 3x the cold rate,
#      both min-of-reps so one noisy sample cannot flake the gate), and
#      tools/bench_compare.py diffs throughput against the previous
#      run's record when one exists — warn-only inside a 40% band, a
#      hard failure (exit 1) past it for the ingest and sgp4 records,
#      where a collapse that deep cannot be scheduler noise.  The pass then boots
#      cosmicdanced against the same dataset (DESIGN.md §15), sends one of
#      every query op plus a snapshot-swap reload, shuts it down cleanly,
#      and asserts the serve.requests / serve.errors / serve.reloads
#      counters in the daemon's --metrics-out dump; micro_serve hammers a
#      loopback daemon with concurrent clients across a mid-load reload
#      and must leave build/BENCH_serve.json behind showing >= 1000 q/s
#      with zero serve errors.
#   5. static analysis: cdlint v2 (the project-invariant lint, DESIGN.md
#      §12/§17) runs its parallel two-phase scan (--threads 4) and must
#      report zero non-baselined findings against the committed baseline,
#      which itself must stay empty of entries; the seeded corpus must keep
#      producing the golden findings so no rule -- per-file or cross-file
#      (R9-R14) -- can silently die, and micro_cdlint leaves
#      build/BENCH_cdlint.json behind tracking the gate's own files/s and
#      rule-evaluations/s with a warn-only trend diff against the previous
#      run.  clang-tidy and shellcheck run when installed and are skipped
#      (not failed) when not.
#
# Usage: tools/run_tier1.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.." || exit 1
JOBS="${1:-$(nproc)}"

echo "== pass 1: plain build + full test suite =="
cmake -B build -S . -DCOSMICDANCE_SANITIZE=
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== pass 2: ThreadSanitizer build + parallel suite =="
cmake -B build-tsan -S . -DCOSMICDANCE_SANITIZE=thread
cmake --build build-tsan -j "$JOBS" \
      --target parallel_differential_test serve_test sgp4_batch_test \
               snapshot_test
# TSan halts with a non-zero exit on any race; no suppressions are used.
# The serve suites put the daemon's atomic snapshot swap (DESIGN.md §15)
# under the same lens: concurrent readers + reloads must be race-free.
# Sgp4ThreadSafety drives one shared deep-space propagator from many
# threads — the regression gate for the old mutable resonance-memo race.
# The Snapshot suites digest and decode sections on pool workers, and
# ConcurrentSaversNeverTearTheSnapshot races real writers on one file.
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
      -R 'ParallelDifferential|ParallelForStress|ThreadPoolTest|Serve|Sgp4ThreadSafety|BatchPropagator|Snapshot'

echo "== pass 3: ASan+UBSan build + malformed-record ingestion suite =="
cmake -B build-asan -S . -DCOSMICDANCE_SANITIZE=address
cmake --build build-asan -j "$JOBS" \
      --target ingestion_fuzz_test diag_test io_test tle_test tle2_test \
               timeutil_test spaceweather_test snapshot_test \
               delta_snapshot_test serve_test obs_test cdlint_test
# The fuzz suite feeds truncated / corrupted fixed-column records through
# every ingestion path; ASan+UBSan turns any column overread into a failure.
# snapshot_test drives the corrupted-snapshot failure matrix (truncation,
# bit flips, stale hashes) through the binary decoder under the same lens;
# delta_snapshot_test does the same for the append-aware incremental path
# (broken layer chains, forged appends, the append/compact fuzz loop).
# serve_test drives hostile requests (garbage frames, a 64 KiB nesting
# flood) through the JSON reader, the service and the loopback daemon, so
# a stack overflow or overread in the request path fails here.  The obs
# and cdlint suites validate the metrics/trace exporters and cdlint --json
# through that same reader, so its every caller runs under the same lens.
ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
      -R 'IngestionFuzz|Diag|ParseLog|DataQualityReport|Csv|Tle|DateTime|Wdc|Snapshot|DeltaSnapshot|Serve|Obs|Cdlint'

echo "== pass 4: observability smoke (CLI metrics/trace + bench telemetry) =="
CLI=build/tools/cosmicdance
SMOKE=build/obs-smoke
rm -rf "$SMOKE"
mkdir -p "$SMOKE"
# data/sample ships only the Dst series; generate the matching catalog.
"$CLI" simulate --dst data/sample/dst.wdc --scenario paper \
       --per-batch 1 --cadence 120 --out "$SMOKE/catalog.tle"
"$CLI" analyze --dst data/sample/dst.wdc --tles "$SMOKE/catalog.tle" \
       --out-dir "$SMOKE/out1" --threads 1 \
       --metrics "$SMOKE/metrics_t1.json" --trace "$SMOKE/trace_t1.json"
"$CLI" analyze --dst data/sample/dst.wdc --tles "$SMOKE/catalog.tle" \
       --out-dir "$SMOKE/out8" --threads 8 \
       --metrics "$SMOKE/metrics_t8.json"
# Bench telemetry artifacts (benchmark suites themselves skipped via the
# nothing-matches filter; the instrumented passes still run).  The ingest
# record from the previous tier-1 run is kept as the comparison baseline.
if [ -f build/BENCH_ingest.json ]; then
  cp build/BENCH_ingest.json build/BENCH_ingest.prev.json
fi
build/bench/micro_ingest --benchmark_filter='^$' \
       --bench-out build/BENCH_ingest.json --threads 0
# Trend diff against the previous run's record (first run on a fresh
# build dir has no baseline, so there is nothing to compare).  Drops
# inside the 40% band print WARN lines; anything past it is a real cliff
# and fails the gate.
if [ -f build/BENCH_ingest.prev.json ]; then
  python3 tools/bench_compare.py build/BENCH_ingest.prev.json \
          build/BENCH_ingest.json --fail-under=40
fi
# Batch SGP4 telemetry: the synthetic mixed fleet across the 60-day grid,
# once at full parallelism and once serially, with the grids compared
# bit-for-bit inside the bench (throughput.threads_identical).
if [ -f build/BENCH_sgp4.json ]; then
  cp build/BENCH_sgp4.json build/BENCH_sgp4.prev.json
fi
build/bench/micro_sgp4 --benchmark_filter='^$' \
       --bench-out build/BENCH_sgp4.json --threads 0
if [ -f build/BENCH_sgp4.prev.json ]; then
  python3 tools/bench_compare.py build/BENCH_sgp4.prev.json \
          build/BENCH_sgp4.json --fail-under=40
fi
# Serving daemon smoke (DESIGN.md §15): boot on an ephemeral port against
# the smoke dataset, send one of every query op plus a reload (which swaps
# the snapshot while the daemon serves), then a clean shutdown.  The
# daemon's exit status and its --metrics-out counter dump are both gated.
DAEMON=build/tools/cosmicdanced
rm -f "$SMOKE/port.txt"
"$DAEMON" --listen 127.0.0.1:0 --dst data/sample/dst.wdc \
          --tles "$SMOKE/catalog.tle" --cache-dir "$SMOKE/serve-cache" \
          --port-file "$SMOKE/port.txt" \
          --metrics-out "$SMOKE/daemon_metrics.json" &
DAEMON_PID=$!
for _ in $(seq 1 100); do
  [ -s "$SMOKE/port.txt" ] && break
  sleep 0.1
done
if [ ! -s "$SMOKE/port.txt" ]; then
  echo "cosmicdanced never wrote its port file" >&2
  kill "$DAEMON_PID" 2>/dev/null || true
  exit 1
fi
for op in ping stats sat_series storm_summary envelope_cdf propagate \
          decay_summary quality_report reload metrics; do
  "$DAEMON" query --port-file "$SMOKE/port.txt" \
            --json "{\"op\":\"$op\"}" > "$SMOKE/serve_$op.json"
done
"$DAEMON" query --port-file "$SMOKE/port.txt" \
          --json '{"op":"shutdown"}' > /dev/null
wait "$DAEMON_PID"
# Serving load generator: concurrent clients with the real query mix and a
# snapshot swap mid-load; exits non-zero on any error or torn epoch and
# leaves build/BENCH_serve.json behind as the CI artifact.
build/bench/micro_serve --clients 8 --requests 500 --threads 0 \
       --bench-out build/BENCH_serve.json
python3 - "$SMOKE" <<'EOF'
import json, sys
smoke = sys.argv[1]
m1 = json.load(open(f"{smoke}/metrics_t1.json"))
m8 = json.load(open(f"{smoke}/metrics_t8.json"))
for report in (m1, m8):
    for key in ("counters", "scheduling", "gauges", "phases"):
        assert key in report, f"metrics JSON missing {key!r}"
assert m1["counters"], "no work counters recorded"
assert m1["counters"] == m8["counters"], (
    "work counters differ between --threads 1 and 8: "
    f"{m1['counters']} vs {m8['counters']}")
trace = json.load(open(f"{smoke}/trace_t1.json"))
assert trace["traceEvents"], "empty trace"
assert any(e.get("ph") == "X" for e in trace["traceEvents"]), \
    "trace has no complete events"
# Phase timings: the CLI's own record must time the pipeline's stages,
# and the same ones at any thread count.
assert m1["phases"], "metrics JSON has no phase timings"
assert sorted(m1["phases"]) == sorted(m8["phases"]), (
    "phases differ between --threads 1 and 8: "
    f"{sorted(m1['phases'])} vs {sorted(m8['phases'])}")
ingest = json.load(open("build/BENCH_ingest.json"))
for key in ("bench", "threads", "dataset", "throughput", "metrics"):
    assert key in ingest, f"ingest bench record missing {key!r}"
# The telemetry pass runs cold -> warm -> append -> delta-warm against a
# fresh cache dir; the warm run must actually hit the snapshot (DESIGN.md
# §13) and the delta-warm run must extend it by parsing only the appended
# tail (DESIGN.md §14) or the incremental path is silently dead.
counters = ingest["metrics"]["counters"]
assert counters.get("ingest.cache_hit") == 1, (
    "warm ingest pass did not hit the snapshot cache: "
    f"{ {k: v for k, v in counters.items() if k.startswith(('ingest.', 'snapshot.'))} }")
assert counters.get("snapshot.written") == 1, "cold pass wrote no snapshot"
assert counters.get("ingest.delta_hit") == 1, (
    "delta-warm ingest pass did not take the append fast path: "
    f"{ {k: v for k, v in counters.items() if k.startswith(('ingest.', 'snapshot.'))} }")
assert counters.get("snapshot.delta_written") == 1, (
    "delta-warm pass persisted no delta layer")
tail_fraction = ingest["throughput"]["delta_tail_fraction"]
assert 0.0 < tail_fraction < 0.05, (
    f"delta-warm pass reparsed {tail_fraction:.1%} of the inputs; "
    "the incremental path must touch well under 5%")
# Absolute ingestion throughput floors (both rates are min-of-reps inside
# micro_ingest, so a single noisy sample cannot trip them).  The cold
# floor is 2x the PR 9 record on this machine (~1.02M records/s); the
# warm floor is the v3 parallel-snapshot contract: loading pre-parsed
# sections must beat reparsing the text by at least 3x.
cold_rate = ingest["throughput"]["tle_records_per_s"]
warm_rate = ingest["throughput"]["snapshot_records_per_s"]
assert cold_rate >= 2.0e6, (
    f"cold TLE parse at {cold_rate:,.0f} records/s is below the 2M floor "
    "(2x the PR 9 baseline)")
assert warm_rate >= 3.0 * cold_rate, (
    f"warm snapshot load at {warm_rate:,.0f} records/s is under 3x the "
    f"cold parse rate ({cold_rate:,.0f}); the v3 section decode has "
    "regressed")
# Batch SGP4 record (DESIGN.md §16): every fleet x grid cell must have
# propagated cleanly, the parallel and serial grids must be bit-identical,
# and the engine must clear the positions/s floor (set ~20x below the
# measured rate so only a real regression trips it).
sgp4 = json.load(open("build/BENCH_sgp4.json"))
for key in ("bench", "threads", "dataset", "throughput", "metrics"):
    assert key in sgp4, f"sgp4 bench record missing {key!r}"
sgp4_tp = sgp4["throughput"]
assert sgp4_tp.get("status_errors") == 0, (
    f"batch propagation hit non-kOk statuses: {sgp4_tp}")
assert sgp4_tp.get("threads_identical") == 1, (
    "parallel and serial batch grids differ; the determinism contract "
    f"is broken: {sgp4_tp}")
positions_per_s = sgp4_tp.get("positions_per_s", 0)
assert positions_per_s >= 100000, (
    f"batch SGP4 throughput {positions_per_s:.0f} positions/s is below "
    "the 100k floor")
# Daemon smoke: every query answered from a whole epoch, and the counter
# dump written at shutdown matches what was sent (8 query ops + shutdown,
# zero errors, exactly one snapshot swap).
ops = ("ping", "stats", "sat_series", "storm_summary", "envelope_cdf",
       "propagate", "decay_summary", "quality_report", "reload", "metrics")
for op in ops:
    response = json.load(open(f"{smoke}/serve_{op}.json"))
    assert response.get("ok") is True, f"{op} failed: {response}"
    if "epoch" in response:
        assert response["epoch"] == response["epoch_end"], (
            f"{op} response tore across epochs: {response['epoch']} vs "
            f"{response['epoch_end']}")
reload_epoch = json.load(open(f"{smoke}/serve_reload.json"))["epoch"]
assert reload_epoch == 2, f"reload did not swap the epoch: {reload_epoch}"
propagate = json.load(open(f"{smoke}/serve_propagate.json"))
assert propagate["samples"] == len(propagate["altitude_km"]), propagate
assert propagate["valid_samples"] >= 1, (
    f"propagate returned no valid altitude samples: {propagate}")
decay = json.load(open(f"{smoke}/serve_decay_summary.json"))
assert decay["satellites"] >= 1 and decay["fastest_decaying"], (
    f"decay_summary ranked no satellites: {decay}")
serve = json.load(open(f"{smoke}/daemon_metrics.json"))["counters"]
assert serve.get("serve.requests") == len(ops) + 1, (
    f"daemon counted {serve.get('serve.requests')} requests, "
    f"expected {len(ops) + 1}")
assert serve.get("serve.errors", 0) == 0, (
    f"daemon recorded serve errors: {serve}")
assert serve.get("serve.reloads") == 1, (
    f"daemon recorded {serve.get('serve.reloads')} reloads, expected 1")
# Serving bench record: the swap-under-load gate (micro_serve already
# failed hard on errors / torn epochs) plus the throughput floor.
record = json.load(open("build/BENCH_serve.json"))
for key in ("bench", "threads", "dataset", "throughput", "metrics"):
    assert key in record, f"serve bench record missing {key!r}"
qps = record["throughput"]["queries_per_s"]
assert qps >= 1000, f"serving throughput {qps:.0f} q/s is below 1000 q/s"
serve_bench = record["metrics"]["counters"]
assert serve_bench.get("serve.errors", 0) == 0, (
    f"micro_serve recorded serve errors: {serve_bench}")
assert serve_bench.get("serve.reloads") == 1, (
    "micro_serve did not swap the snapshot mid-load")
print(f"observability smoke OK: {len(m1['counters'])} work counters "
      f"bit-identical across thread counts, "
      f"{len(trace['traceEvents'])} trace events, "
      f"{len(m1['phases'])} phases, "
      f"ingest cache_hit={counters['ingest.cache_hit']}, "
      f"delta_hit={counters['ingest.delta_hit']} "
      f"(tail fraction {tail_fraction:.2%}), "
      f"cold {cold_rate:,.0f} rec/s, warm {warm_rate:,.0f} rec/s "
      f"({warm_rate / cold_rate:.1f}x); "
      f"sgp4 batch {positions_per_s:.0f} positions/s, 0 status errors, "
      f"threads identical; "
      f"daemon smoke OK: {serve['serve.requests']} requests, "
      f"0 errors, 1 reload; micro_serve {qps:.0f} q/s")
EOF

echo "== pass 5: static analysis (cdlint; clang-tidy/shellcheck if installed) =="
# cdlint v2: the parallel two-phase scan (lex -> project index -> per-file
# + cross-file rules R9-R14) must be clean against the committed baseline,
# and the self-test corpus must still produce the golden findings --
# otherwise a lint rule has silently stopped firing.
cmake --build build -j "$JOBS" --target cdlint cdlint_test micro_cdlint
build/tools/cdlint/cdlint --root . --baseline tools/cdlint/baseline.txt \
      --threads 4
# The baseline must stay EMPTY: grandfathering is for bootstrap only, new
# findings get fixed or carry an inline `// cdlint: allow(<rule>) <reason>`.
if grep -Ev '^[[:space:]]*(#|$)' tools/cdlint/baseline.txt; then
  echo "cdlint baseline has grown entries; fix or allow() the findings" >&2
  exit 1
fi
ctest --test-dir build --output-on-failure -R 'CdlintTest'
# Lint-gate cost telemetry: in-process scan_tree() over the real tree; any
# finding fails the bench, and the record's throughput keys feed the same
# warn-only trend diff as the other micro benches.
if [ -f build/BENCH_cdlint.json ]; then
  cp build/BENCH_cdlint.json build/BENCH_cdlint.prev.json
fi
build/bench/micro_cdlint --root . --threads 4 \
      --bench-out build/BENCH_cdlint.json
if [ -f build/BENCH_cdlint.prev.json ]; then
  python3 tools/bench_compare.py build/BENCH_cdlint.prev.json \
          build/BENCH_cdlint.json
fi
python3 - <<'EOF'
import json
record = json.load(open("build/BENCH_cdlint.json"))
for key in ("bench", "threads", "dataset", "throughput", "metrics"):
    assert key in record, f"cdlint bench record missing {key!r}"
throughput = record["throughput"]
for key in ("files_per_s", "rules_per_s"):
    assert throughput.get(key, 0) > 0, (
        f"cdlint bench record has no {key}: {throughput}")
counters = record["metrics"]["counters"]
assert counters.get("cdlint.files", 0) > 0, "cdlint bench scanned no files"
assert counters.get("cdlint.findings", 0) == 0, (
    f"cdlint bench saw findings on the tree: {counters}")
print(f"cdlint gate OK: {counters['cdlint.files']} files at "
      f"{throughput['files_per_s']:.0f} files/s "
      f"({throughput['rules_per_s']:.0f} rule evals/s)")
EOF
tools/run_clang_tidy.sh build "$JOBS"
if command -v shellcheck >/dev/null 2>&1; then
  shellcheck tools/run_tier1.sh tools/run_clang_tidy.sh
else
  echo "shellcheck not installed; skipping shell lint"
fi

echo "== tier-1 gate: OK =="
