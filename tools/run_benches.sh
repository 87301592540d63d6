#!/usr/bin/env sh
# Runs every experiment-reproduction binary and collects their
# BENCH_<name>.json records in one directory, ready for perf_regress:
#
#   tools/run_benches.sh [-B BUILD_DIR] [-o OUT_DIR] [--] [extra bench args]
#
#   -B BUILD_DIR   build tree holding bench/ binaries (default: build)
#   -o OUT_DIR     where JSON records land (default: BUILD_DIR/bench-results)
#
# Console tables go to OUT_DIR/<bench>.log; the JSON records are written by
# the binaries themselves via $FOURQ_BENCH_JSON_DIR. bench_field_ops (the
# google-benchmark harness) is skipped: it has its own CLI and emits no
# BENCH_*.json records. If fourqc is built, a static microcode lint pass
# also runs, leaving fourq.lint.v1 records in OUT_DIR/LINT_<program>.json.
set -eu

build_dir=build
out_dir=
while [ $# -gt 0 ]; do
  case "$1" in
    -B) build_dir=$2; shift 2 ;;
    -o) out_dir=$2; shift 2 ;;
    --) shift; break ;;
    -h|--help)
      sed -n '2,15p' "$0" | sed 's/^# \{0,1\}//'
      exit 0 ;;
    *) echo "run_benches.sh: unknown argument '$1' (try --help)" >&2; exit 2 ;;
  esac
done
[ -n "$out_dir" ] || out_dir=$build_dir/bench-results

if [ ! -d "$build_dir/bench" ]; then
  echo "run_benches.sh: $build_dir/bench not found — configure and build first" >&2
  exit 2
fi

mkdir -p "$out_dir"
FOURQ_BENCH_JSON_DIR=$out_dir
export FOURQ_BENCH_JSON_DIR

failures=0
ran=0
for bench in "$build_dir"/bench/bench_*; do
  [ -x "$bench" ] || continue
  name=$(basename "$bench")
  case "$name" in
    bench_field_ops) echo "skip  $name (google-benchmark harness)"; continue ;;
    *.*) continue ;;  # skip non-binaries (e.g. .d files on some generators)
  esac
  ran=$((ran + 1))
  if "$bench" "$@" > "$out_dir/$name.log" 2>&1; then
    echo "ok    $name"
  else
    echo "FAIL  $name (see $out_dir/$name.log)" >&2
    failures=$((failures + 1))
  fi
done

# Static microcode lint, emitted alongside the BENCH records so a bench
# run always carries the fourq.lint.v1 verdict for the ROMs it measured.
if [ -x "$build_dir/tools/fourqc" ]; then
  for program in loop sm; do
    ran=$((ran + 1))
    if "$build_dir/tools/fourqc" lint --program "$program" --json \
        > "$out_dir/LINT_$program.json" 2> "$out_dir/LINT_$program.log"; then
      echo "ok    lint ($program)"
    else
      echo "FAIL  lint ($program) (see $out_dir/LINT_$program.json)" >&2
      failures=$((failures + 1))
    fi
  done
  # Range verification (abstract-interpretation overflow-freedom proof):
  # the same backends with the --ranges pass on, recorded separately so the
  # bench run carries the per-program range verdict and timing.
  for program in loop sm; do
    ran=$((ran + 1))
    if "$build_dir/tools/fourqc" lint --program "$program" --ranges --json \
        > "$out_dir/LINT_ranges_$program.json" 2> "$out_dir/LINT_ranges_$program.log"; then
      echo "ok    lint ranges ($program)"
    else
      echo "FAIL  lint ranges ($program) (see $out_dir/LINT_ranges_$program.json)" >&2
      failures=$((failures + 1))
    fi
  done
else
  echo "skip  lint ($build_dir/tools/fourqc not built)"
fi

# Engine throughput regression gate: the batch engine must stay >=3x over
# the recompile-per-job status quo (tools/baselines/bench_engine_baseline.jsonl).
script_dir=$(dirname "$0")
if [ -x "$build_dir/tools/perf_regress" ] && [ -f "$out_dir/BENCH_engine.json" ] \
    && [ -f "$script_dir/baselines/bench_engine_baseline.jsonl" ]; then
  ran=$((ran + 1))
  if "$build_dir/tools/perf_regress" "$script_dir/baselines/bench_engine_baseline.jsonl" \
      "$out_dir/BENCH_engine.json" > "$out_dir/perf_regress_engine.log" 2>&1; then
    echo "ok    perf_regress (engine baseline)"
  else
    echo "FAIL  perf_regress (engine baseline) (see $out_dir/perf_regress_engine.log)" >&2
    failures=$((failures + 1))
  fi
else
  echo "skip  perf_regress (engine baseline)"
fi

# Lane-executor regression gate: the 8-lane wave must hold its ledger
# efficiency (decoded issue counts x measured lane-kernel costs, over the
# measured wave time, both in-process so shared-host load cancels), 8
# workers must not regress below 1 worker, and every lane must match the
# software golden model bitwise
# (tools/baselines/bench_lanes_baseline.jsonl, docs/ENGINE.md).
if [ -x "$build_dir/tools/perf_regress" ] && [ -f "$out_dir/BENCH_lanes.json" ] \
    && [ -f "$script_dir/baselines/bench_lanes_baseline.jsonl" ]; then
  ran=$((ran + 1))
  if "$build_dir/tools/perf_regress" "$script_dir/baselines/bench_lanes_baseline.jsonl" \
      "$out_dir/BENCH_lanes.json" > "$out_dir/perf_regress_lanes.log" 2>&1; then
    echo "ok    perf_regress (lanes baseline)"
  else
    echo "FAIL  perf_regress (lanes baseline) (see $out_dir/perf_regress_lanes.log)" >&2
    failures=$((failures + 1))
  fi
else
  echo "skip  perf_regress (lanes baseline)"
fi

# Observability overhead gate: full telemetry (spans, labeled metrics,
# flight recorder, perf_event sampling) must add <2% to the engine hot path
# (tools/baselines/bench_obs_overhead_baseline.jsonl, docs/OBSERVABILITY.md).
if [ -x "$build_dir/tools/perf_regress" ] && [ -f "$out_dir/BENCH_obs_overhead.json" ] \
    && [ -f "$script_dir/baselines/bench_obs_overhead_baseline.jsonl" ]; then
  ran=$((ran + 1))
  if "$build_dir/tools/perf_regress" "$script_dir/baselines/bench_obs_overhead_baseline.jsonl" \
      "$out_dir/BENCH_obs_overhead.json" > "$out_dir/perf_regress_obs_overhead.log" 2>&1; then
    echo "ok    perf_regress (obs overhead baseline)"
  else
    echo "FAIL  perf_regress (obs overhead baseline) (see $out_dir/perf_regress_obs_overhead.log)" >&2
    failures=$((failures + 1))
  fi
else
  echo "skip  perf_regress (obs overhead baseline)"
fi

# MSM regression gate: batch verification of 1024 signatures must stay >=5x
# over per-signature verify, and every MSM backend must agree bitwise
# (tools/baselines/bench_msm_baseline.jsonl).
if [ -x "$build_dir/tools/perf_regress" ] && [ -f "$out_dir/BENCH_msm.json" ] \
    && [ -f "$script_dir/baselines/bench_msm_baseline.jsonl" ]; then
  ran=$((ran + 1))
  if "$build_dir/tools/perf_regress" "$script_dir/baselines/bench_msm_baseline.jsonl" \
      "$out_dir/BENCH_msm.json" > "$out_dir/perf_regress_msm.log" 2>&1; then
    echo "ok    perf_regress (msm baseline)"
  else
    echo "FAIL  perf_regress (msm baseline) (see $out_dir/perf_regress_msm.log)" >&2
    failures=$((failures + 1))
  fi
else
  echo "skip  perf_regress (msm baseline)"
fi

# zk-scale MSM gate: at n = 2^20 the single-thread stream's bucket insertion
# must hold its ledger efficiency (7 x (lane fp2 mul + add) per add, over the
# measured ns per add), the pool must not fall below the single-thread run,
# with zero cross-check mismatches and a peak working set that does not grow
# with the term count (tools/baselines/bench_msm_large_baseline.jsonl).
if [ -x "$build_dir/tools/perf_regress" ] && [ -f "$out_dir/BENCH_msm_large.json" ] \
    && [ -f "$script_dir/baselines/bench_msm_large_baseline.jsonl" ]; then
  ran=$((ran + 1))
  if "$build_dir/tools/perf_regress" "$script_dir/baselines/bench_msm_large_baseline.jsonl" \
      "$out_dir/BENCH_msm_large.json" > "$out_dir/perf_regress_msm_large.log" 2>&1; then
    echo "ok    perf_regress (msm large baseline)"
  else
    echo "FAIL  perf_regress (msm large baseline) (see $out_dir/perf_regress_msm_large.log)" >&2
    failures=$((failures + 1))
  fi
else
  echo "skip  perf_regress (msm large baseline)"
fi

# Range-analysis wall-time gate: the overflow-freedom proof must stay
# within its per-program budget (tools/baselines/lint_ranges_baseline.jsonl)
# so it can run on every CI build.
if [ -x "$build_dir/tools/perf_regress" ] && [ -x "$build_dir/tools/fourqc" ] \
    && [ -f "$script_dir/baselines/lint_ranges_baseline.jsonl" ]; then
  ran=$((ran + 1))
  if "$build_dir/tools/fourqc" lint --program sm --ranges \
        --out "$out_dir/lint_ranges_out" > /dev/null 2>&1 \
      && "$build_dir/tools/perf_regress" "$script_dir/baselines/lint_ranges_baseline.jsonl" \
        "$out_dir/lint_ranges_out/metrics.jsonl" > "$out_dir/perf_regress_lint_ranges.log" 2>&1; then
    echo "ok    perf_regress (lint ranges baseline)"
  else
    echo "FAIL  perf_regress (lint ranges baseline) (see $out_dir/perf_regress_lint_ranges.log)" >&2
    failures=$((failures + 1))
  fi
else
  echo "skip  perf_regress (lint ranges baseline)"
fi

# Mirror the JSON records into the repo root so CI can pick them up as
# per-PR artifacts with a stable path (see .github/workflows/ci.yml), and
# so a local run leaves the bench trajectory next to the sources.
repo_root=$(CDPATH= cd -- "$script_dir/.." && pwd)
for record in "$out_dir"/BENCH_*.json; do
  [ -f "$record" ] || continue
  cp "$record" "$repo_root/$(basename "$record")"
done

echo
echo "results: $out_dir (BENCH_*.json mirrored to $repo_root)"
ls "$out_dir"/BENCH_*.json "$out_dir"/LINT_*.json 2>/dev/null || echo "(no JSON records produced)"
if [ "$failures" -gt 0 ]; then
  echo "run_benches.sh: $failures of $ran steps failed" >&2
  exit 1
fi
