#!/bin/sh
# `fourqc batch` counts its scheduler solves from the compile cache, in
# every build (FOURQ_OBS=OFF included).
#
#   check_fourqc_batch_cache.sh FOURQC DIR
#
# With a fresh disk ROM cache in DIR, a cold run solves once, a warm run
# loads the ROM and solves zero times, and a run over a truncated ROM file
# rejects it and solves once again. Every run must exit 0.
set -u
fourqc=$1
dir=$2
failed=0

rm -rf "$dir"
mkdir -p "$dir"

# solves WANT WHAT: run fourqc batch on the cache in $dir, which WHAT
# describes, and expect WANT scheduler solves.
solves() {
  if ! FOURQ_ROM_CACHE_DIR="$dir" "$fourqc" batch --jobs 8 > "$dir/out.log" 2>&1; then
    echo "fourqc batch ($2) failed:"
    cat "$dir/out.log"
    failed=1
  elif ! grep -q "scheduler solves this run: $1" "$dir/out.log"; then
    echo "fourqc batch ($2): want $1 scheduler solve(s), got:"
    grep "scheduler solves" "$dir/out.log"
    failed=1
  fi
}

solves 1 "cold cache"
solves 0 "warm cache"
for f in "$dir"/rom-*.txt; do
  head -c 1000 "$f" > "$f.cut" && mv "$f.cut" "$f"
done
solves 1 "truncated ROM file"

rm -rf "$dir"
exit "$failed"
