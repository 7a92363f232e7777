// The one rule that turns two readings of a cumulative counter into the
// increase between them. Table I metrics (pipeline), the online analyzer
// (core) and tsdb rate queries all call it, so a wrap or a reset reads the
// same everywhere.
#pragma once

#include <cstdint>
#include <optional>

namespace tacc::util {

/// The increase of a `width_bits`-wide counter from `prev` to `curr`,
/// assuming at most one wrap between the readings.
///  * 1..63 bits: (curr - prev) mod 2^width_bits — a narrow register
///    (32-bit RAPL, 48-bit PMC/uncore) wraps within hours.
///  * 64 bits (or any other width): a modular difference of 2^63 or more
///    means the counter went backwards — a reset (node reboot, Lustre
///    stats clear) — and the result is nullopt: the interval has no
///    measurable increase. A smaller difference is an increase, or a
///    genuine wrap of a counter near 2^64.
constexpr std::optional<std::uint64_t> counter_delta(
    std::uint64_t prev, std::uint64_t curr, int width_bits) noexcept {
  const std::uint64_t delta = curr - prev;  // mod 2^64
  if (width_bits > 0 && width_bits < 64) {
    return delta & ((std::uint64_t{1} << width_bits) - 1);
  }
  if (delta >> 63 != 0) return std::nullopt;
  return delta;
}

}  // namespace tacc::util
