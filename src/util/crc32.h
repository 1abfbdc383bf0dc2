// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320): the integrity
// checksum used by the v2 checkpoint format to detect torn writes and
// bit-rot per tensor, and by the dist wire and collectives. Slicing-by-8
// tables, no dependencies.
#ifndef TFMR_UTIL_CRC32_H_
#define TFMR_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace llm::util {

/// CRC-32 of `len` bytes. Pass a previous result as `seed` to checksum a
/// buffer incrementally (Crc32(b, n2, Crc32(a, n1)) == Crc32(a+b)).
uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0);

}  // namespace llm::util

#endif  // TFMR_UTIL_CRC32_H_
