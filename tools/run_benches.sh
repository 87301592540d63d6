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

# perf_regress gates, one row per gate with its reason: the bench record
# BENCH_<gate>.json against tools/baselines/bench_<gate>_baseline.jsonl
# (docs/ENGINE.md, docs/OBSERVABILITY.md). The loop's stdin is the row
# list, so perf_regress reads /dev/null.
script_dir=$(dirname "$0")
while read -r gate _; do
  label="$(echo "$gate" | tr _ ' ') baseline"
  record=$out_dir/BENCH_$gate.json
  baseline=$script_dir/baselines/bench_${gate}_baseline.jsonl
  log=$out_dir/perf_regress_$gate.log
  if [ -x "$build_dir/tools/perf_regress" ] && [ -f "$record" ] && [ -f "$baseline" ]; then
    ran=$((ran + 1))
    if "$build_dir/tools/perf_regress" "$baseline" "$record" > "$log" 2>&1 < /dev/null; then
      echo "ok    perf_regress ($label)"
    else
      echo "FAIL  perf_regress ($label) (see $log)" >&2
      failures=$((failures + 1))
    fi
  else
    echo "skip  perf_regress ($label)"
  fi
done <<'EOF'
engine        # the batch engine stays >=3x over recompiling the ROM per job
lanes         # the 8-lane wave holds its ledger efficiency; 8 workers >= 1; lanes match the golden model bitwise
obs_overhead  # full telemetry adds < 2% to the engine hot path
msm           # batch-verifying 1024 signatures stays >=5x over per-signature verify; MSM backends agree bitwise
msm_large     # at n = 2^20 insertion holds its ledger efficiency, the pool >= one thread, no cross-check mismatch, flat peak memory
EOF

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
