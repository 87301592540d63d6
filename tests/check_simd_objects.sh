#!/bin/sh
# ODR check for the runtime-dispatched AVX-512 lane kernels.
#
#   check_simd_objects.sh NM OBJECT...
#
# OBJECT arguments may also be ;-separated lists (CMake's
# $<TARGET_OBJECTS:...> expands to one).
#
# fp_lanes_avx512.cpp is the only translation unit compiled with
# -mavx512f. Any inline function from a header that it emits out of line
# becomes a weak (COMDAT) symbol, and the linker keeps one arbitrary copy
# for the whole program — possibly the AVX-512 one, which the scalar F_p /
# F_{p^2} / U256 path would then execute on CPUs without that ISA. This
# fails if the object defines a weak or unique symbol from the fourq
# namespaces. Objects not named fp_lanes_avx*.o are ignored; at least one
# must be present.
set -euf
nm=$1
shift
checked=0
status=0
for arg in "$@"; do
  IFS=';'
  for obj in $arg; do
    case $(basename "$obj") in
      fp_lanes_avx*) ;;
      *) continue ;;
    esac
    checked=$((checked + 1))
    shared=$("$nm" -C "$obj" | awk '$2 ~ /^[WVu]$/' | grep 'fourq::' || true)
    if [ -n "$shared" ]; then
      echo "FAIL $(basename "$obj") defines shared copies of inline functions:"
      echo "$shared"
      status=1
    else
      echo "ok   $(basename "$obj"): no weak fourq symbols"
    fi
  done
done
if [ "$checked" -eq 0 ]; then
  echo "FAIL no fp_lanes_avx*.o among the arguments"
  exit 1
fi
exit $status
