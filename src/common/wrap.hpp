// Annotation for deliberate unsigned wraparound.
//
// The clang `-fsanitize=integer` group flags unsigned overflow and
// bit-discarding left shifts even though both are well-defined in C++ —
// they are *usually* bugs in arithmetic code. This codebase has a small,
// closed set of functions whose entire point is two's-complement wrapping:
// carry/borrow extraction (subb64, and the u128-halves helpers mask128,
// add256, sub256, mul128x128 and sqr128 behind the inline field
// arithmetic), multi-word shifts, and the PRNG / hash mixers. Marking those
// functions lets the UBSan-integer CI leg treat any *other* unsigned wrap
// in the field and curve layers as a finding.
#pragma once

#if defined(__clang__)
#define FOURQ_NO_SANITIZE_UNSIGNED_WRAP \
  __attribute__((no_sanitize("unsigned-integer-overflow", "unsigned-shift-base")))
#else
#define FOURQ_NO_SANITIZE_UNSIGNED_WRAP
#endif
