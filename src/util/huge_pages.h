// The 2 MiB pages that weight storage is aligned to (core::Tensor's
// allocator) and advised as (Tensor::Unset), and the 4 KiB and 2 MiB pages
// that Rng::FillNormal faults in.
#ifndef TFMR_UTIL_HUGE_PAGES_H_
#define TFMR_UTIL_HUGE_PAGES_H_

#include <cstddef>
#include <cstdint>

namespace llm::util {

/// Bytes in a base page on x86-64.
inline constexpr size_t kPage = size_t{4} << 10;

/// Bytes in a transparent huge page on x86-64.
inline constexpr size_t kHugePage = size_t{2} << 20;

/// Whole pages inside a byte range, as the addresses [begin, end); begin ==
/// end when there are none.
struct Pages {
  uintptr_t begin = 0;
  uintptr_t end = 0;
};

/// The whole `page`-byte pages (a power of two) inside [p, p + bytes).
inline Pages WholePages(const void* p, size_t bytes, size_t page) {
  const uintptr_t first = reinterpret_cast<uintptr_t>(p);
  const uintptr_t begin = (first + page - 1) & ~(page - 1);
  const uintptr_t end = (first + bytes) & ~(page - 1);
  return {begin, begin < end ? end : begin};
}

}  // namespace llm::util

#endif  // TFMR_UTIL_HUGE_PAGES_H_
