// The 2 MiB pages that weight storage is aligned to (core::Tensor's
// allocator), advised as (Tensor::Unset) and faulted in by
// (Rng::FillNormal).
#ifndef TFMR_UTIL_HUGE_PAGES_H_
#define TFMR_UTIL_HUGE_PAGES_H_

#include <cstddef>
#include <cstdint>

namespace llm::util {

/// Bytes in a transparent huge page on x86-64.
inline constexpr size_t kHugePage = size_t{2} << 20;

/// The whole huge pages inside a byte range, as addresses: pages
/// [begin, begin + count * kHugePage).
struct HugePages {
  uintptr_t begin = 0;
  size_t count = 0;
};

/// The whole huge pages inside [p, p + bytes): none when the range holds
/// no aligned 2 MiB.
inline HugePages WholeHugePages(const void* p, size_t bytes) {
  const uintptr_t first = reinterpret_cast<uintptr_t>(p);
  const uintptr_t begin = (first + kHugePage - 1) & ~(kHugePage - 1);
  const uintptr_t end = (first + bytes) & ~(kHugePage - 1);
  return {begin, begin < end ? (end - begin) / kHugePage : 0};
}

}  // namespace llm::util

#endif  // TFMR_UTIL_HUGE_PAGES_H_
