// 64-bit FNV-1a: compile-cache key hashes and program fingerprints
// (engine/cache.cpp), ROM file checksums (asic/romfile.cpp). Not a
// cryptographic hash — it names and guards files against accidents.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

#include "common/wrap.hpp"

namespace fourq {

struct Fnv1a {
  uint64_t h = 14695981039346656037ull;

  FOURQ_NO_SANITIZE_UNSIGNED_WRAP void byte(uint8_t b) {
    h ^= b;
    h *= 1099511628211ull;
  }
  void bytes(std::string_view s) {
    for (unsigned char c : s) byte(c);
  }
  // A word as its 8 little-endian bytes.
  void mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<uint8_t>(v >> (8 * i)));
  }
  void mix_double(double d) {
    uint64_t bits;
    static_assert(sizeof bits == sizeof d);
    std::memcpy(&bits, &d, sizeof bits);
    mix(bits);
  }
};

}  // namespace fourq
