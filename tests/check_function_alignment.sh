#!/bin/sh
# Code-placement check for the hot lane and MSM kernels.
#
#   check_function_alignment.sh NM READELF OBJECT...
#
# OBJECT arguments may also be ;-separated lists (CMake's
# $<TARGET_OBJECTS:...> expands to one).
#
# fourq_field, fourq_curve and fourq_engine are compiled with
# -falign-functions=64, so code linked ahead of the hot kernels cannot
# move them off a 64-byte boundary (which shifted end-to-end throughput by
# several percent). This fails unless, in every object named
# fp_lanes_avx512*.o, multiscalar*.o or lanes*.o, every function defined
# in a code section (.text, .text.<comdat>) starts at a multiple of 64 and
# every such section is 64-byte aligned. .text.unlikely holds the code GCC
# judges cold (its split-off .cold parts, [[gnu::cold]] functions) and is
# laid out for size, so it is exempt. At least one object must match.
set -euf
nm=$1
readelf=$2
shift 2
checked=0
status=0
for arg in "$@"; do
  IFS=';'
  for obj in $arg; do
    case $(basename "$obj") in
      fp_lanes_avx512*.o | multiscalar*.o | lanes*.o) ;;
      *) continue ;;
    esac
    checked=$((checked + 1))
    name=$(basename "$obj")
    # nm -f sysv: name|value|class|type|size|line|section. A hex value is a
    # multiple of 64 iff its last two digits are 00, 40, 80 or c0.
    funcs=$("$nm" -f sysv "$obj" | awk -F'|' '$4 ~ /FUNC/ && $7 ~ /^\.text/ &&
             $7 !~ /^\.text\.unlikely/ { print $2, $1 }')
    off=$(echo "$funcs" | awk 'NF && substr($1, length($1) - 1) !~ /^[048c]0$/')
    sections=$("$readelf" -SW "$obj" | awk '{ sub(/^ *\[ *[0-9]+\] */, "") }
             $1 ~ /^\.text/ && $1 !~ /^\.text\.unlikely/ && $2 == "PROGBITS" &&
             $NF % 64 != 0 { print $1, "aligned to", $NF }')
    if [ -n "$off" ] || [ -n "$sections" ]; then
      echo "FAIL $name: code off its 64-byte boundary:"
      [ -z "$off" ] || echo "$off"
      [ -z "$sections" ] || echo "$sections"
      status=1
    else
      echo "ok   $name: $(echo "$funcs" | awk 'NF' | wc -l) functions at 64-byte boundaries"
    fi
  done
done
if [ "$checked" -eq 0 ]; then
  echo "FAIL no fp_lanes_avx512*.o, multiscalar*.o or lanes*.o among the arguments"
  exit 1
fi
exit $status
