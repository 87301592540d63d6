#!/bin/sh
# Exit-status contract of fourqc's numeric flags.
#
#   check_fourqc_flags.sh FOURQC
#
# A numeric flag value that is not a whole integer in the flag's range is a
# usage error (exit 2), rejected while the arguments are read, so none of
# these cases runs any work. A machine configuration the scheduler cannot
# meet is an error (exit 1), not an abort.
set -u
fourqc=$1
failed=0

expect() {
  want=$1
  shift
  "$fourqc" "$@" >/dev/null 2>&1
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "fourqc $*: exit $got, want $want"
    failed=1
  fi
}

for flag in --multipliers --addsubs --mul-ii --read-ports --write-ports; do
  expect 2 "$flag" 0
done
expect 2 --mul-latency abc
expect 2 --anneal-iters -5
expect 2 --disasm 0 x
expect 2 profile --repeat 0
expect 2 lint --fleet-workers -1
expect 2 stats --dir /nonexistent-fourqc-dir --follow 2x
expect 2 batch --seed zz
expect 2 batch --jobs 0
expect 2 batch --verify-sigs -2
expect 2 batch --verify-sigs 8 --corrupt x
expect 2 batch --verify-sigs 8 --corrupt 8
expect 2 batch --corrupt 0
expect 1 --read-ports 1
exit "$failed"
