// Integer arithmetic of the language: 64-bit two's complement that wraps
// on overflow. C++ leaves signed overflow undefined, and x86 traps on
// INT64_MIN / -1, so a one-line program (or a shipped segment) could
// otherwise kill the whole site process. The interpreter, the reference
// reducer and the constant folder all use these, so they agree on every
// input. Division and modulo by zero stay the caller's error.
#pragma once

#include <cstdint>

namespace dityco::wrap {

inline std::int64_t add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t mul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t neg(std::int64_t a) { return sub(0, a); }
/// Truncating division; INT64_MIN / -1 wraps to INT64_MIN. `b != 0`.
inline std::int64_t div(std::int64_t a, std::int64_t b) {
  return b == -1 ? neg(a) : a / b;
}
/// Remainder with the sign of `a`; INT64_MIN % -1 is 0. `b != 0`.
inline std::int64_t mod(std::int64_t a, std::int64_t b) {
  return b == -1 ? 0 : a % b;
}

}  // namespace dityco::wrap
