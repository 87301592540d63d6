#!/bin/sh
# Exit-status contract of fourqc's flags.
#
#   check_fourqc_flags.sh FOURQC
#
# A numeric flag value that is not a whole integer in the flag's range is a
# usage error (exit 2), rejected while the arguments are read, so none of
# these cases runs any work. So is a flag whose value the command would not
# use: one that belongs to another command, one a mode overrides, or one
# that only matters together with another flag. A machine configuration
# the scheduler cannot meet is an error (exit 1), not an abort.
set -u
fourqc=$1
failed=0
with_env=

expect() {
  want=$1
  shift
  # shellcheck disable=SC2086
  env $with_env "$fourqc" "$@" >/dev/null 2>&1
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "$with_env fourqc $*: exit $got, want $want"
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

# Flags the command does not use (exit status of the previous fourqc,
# which accepted and ignored each of them, in parentheses).
expect 2 batch --save-rom /nonexistent-fourqc-dir/x.rom       # (0)
expect 2 profile --verify 1f                                  # (0)
expect 2 explain --solver list                                # (0)
expect 2 lint --fleet --mul-latency 4                         # (0)
expect 2 lint --fleet-grid full                               # (0)
expect 2 stats --dir /nonexistent-fourqc-dir --multipliers 2  # (1)
expect 2 --looped --multipliers 2                             # (0)
expect 2 --looped --save-rom /nonexistent-fourqc-dir/x.rom    # (0)
# Removed flags.
expect 2 --vcd /nonexistent-fourqc-dir/x.vcd                  # (1)
expect 2 --dot /nonexistent-fourqc-dir/x.dot                  # (1)
expect 2 --verilog /nonexistent-fourqc-dir/x.v                # (1)
expect 2 batch --rom-cache fourqc_rom_cache_unused           # (0)
expect 2 batch --chunk 4                                      # (0)
expect 2 batch --no-check                                     # (0)
expect 2 profile --events                                     # (0)
# Backends that lint nothing.
expect 2 lint --fleet --backends bogus                        # (0, "CLEAN")
expect 2 lint --fleet --program sm --backends modulo          # (0, "CLEAN")
# A bad environment value.
with_env=FOURQ_OBS_EXPORT_INTERVAL_MS=abc
expect 2 batch --jobs 1                                       # (0)
with_env=
exit "$failed"
