// Capped exponential backoff with jitter: the one delay the dist
// transport's reconnect loop and the serving retry loop sleep by.
#ifndef TFMR_UTIL_BACKOFF_H_
#define TFMR_UTIL_BACKOFF_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>

namespace llm::util {

/// Delay before retry `attempt` (0-based): `initial` * 2^attempt, capped at
/// `cap`, then scaled into [0.5, 1.0)x by `jitter_uniform` (a draw in
/// [0, 1)) so decorrelated clients do not re-collide. Whole milliseconds,
/// at least 1; the same inputs give the same delay.
inline std::chrono::milliseconds BackoffDelay(int attempt,
                                              std::chrono::milliseconds initial,
                                              std::chrono::milliseconds cap,
                                              double jitter_uniform) {
  const double base_ms =
      std::min<double>(static_cast<double>(cap.count()),
                       static_cast<double>(initial.count()) *
                           std::pow(2.0, std::max(attempt, 0)));
  const double jittered = base_ms * (0.5 + 0.5 * jitter_uniform);
  return std::chrono::milliseconds(
      std::max<int64_t>(1, static_cast<int64_t>(jittered)));
}

}  // namespace llm::util

#endif  // TFMR_UTIL_BACKOFF_H_
