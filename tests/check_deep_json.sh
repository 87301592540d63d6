#!/bin/sh
# The artifact readers reject a document nested too deeply for the JSON
# parser instead of overflowing the stack.
#
#   check_deep_json.sh FOURQC PERF_REGRESS DIR
#
# DIR/deep.json is 200,000 '[' characters and a newline. `fourqc perf diff`
# and perf_regress report it as a malformed input (exit 2); `fourqc stats`
# reports it as a malformed metrics.jsonl (exit 1). A crash would exit with
# 128 + the signal number.
set -u
fourqc=$1
perf_regress=$2
dir=$3
failed=0

rm -rf "$dir"
mkdir -p "$dir/snapshot"
{ head -c 200000 /dev/zero | tr '\0' '['; echo; } > "$dir/deep.json"
cp "$dir/deep.json" "$dir/snapshot/metrics.jsonl"

# want WANT WHAT CMD...: run CMD, which WHAT describes, and expect exit WANT.
want() {
  code=$1
  what=$2
  shift 2
  "$@" >/dev/null 2>&1
  got=$?
  if [ "$got" -ne "$code" ]; then
    echo "$what on deeply nested JSON: exit $got, want $code"
    failed=1
  fi
}

want 2 "fourqc perf diff" "$fourqc" perf diff "$dir/deep.json" "$dir/deep.json"
want 2 "perf_regress" "$perf_regress" "$dir/deep.json" "$dir/deep.json"
want 1 "fourqc stats" "$fourqc" stats --dir "$dir/snapshot"

rm -rf "$dir"
exit "$failed"
