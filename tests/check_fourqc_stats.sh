#!/bin/sh
# `fourqc stats` validates an exporter snapshot directory.
#
#   check_fourqc_stats.sh FOURQC DIR
#
# A `fourqc batch` run with the exporter on leaves a snapshot in DIR that
# stats accepts (exit 0). A metrics.jsonl cut mid-line or at a line
# boundary is malformed (exit 1).
set -u
fourqc=$1
dir=$2
failed=0

rm -rf "$dir" "$dir.bad"
if ! FOURQ_OBS_EXPORT_DIR="$dir" "$fourqc" batch --jobs 8 >/dev/null 2>&1; then
  echo "fourqc batch with FOURQ_OBS_EXPORT_DIR=$dir failed"
  exit 1
fi

# stats_exit WANT WHAT: run stats on $dir.bad, which WHAT describes.
stats_exit() {
  "$fourqc" stats --dir "$dir.bad" >/dev/null 2>&1
  got=$?
  if [ "$got" -ne "$1" ]; then
    echo "fourqc stats on $2: exit $got, want $1"
    failed=1
  fi
}

cp -r "$dir" "$dir.bad"
stats_exit 0 "the snapshot as written"

header=$(head -n 1 "$dir/metrics.jsonl" | wc -c)
head -c $((header + 10)) "$dir/metrics.jsonl" > "$dir.bad/metrics.jsonl"
stats_exit 1 "metrics.jsonl cut mid-line"

head -n 2 "$dir/metrics.jsonl" > "$dir.bad/metrics.jsonl"
stats_exit 1 "metrics.jsonl cut at a line boundary"

rm -rf "$dir" "$dir.bad"
exit "$failed"
