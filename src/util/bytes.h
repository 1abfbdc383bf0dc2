// The one byte codec behind the binary formats: v2 checkpoints
// (train/checkpoint), the dist wire's frame header and gather payload
// (train/dist/wire) and telemetry units and postmortems (obs/telemetry).
//
// A scalar goes out as its host bytes. The static_assert below admits only
// little-endian hosts, so the little-endian byte order each format
// documents holds by construction. A ByteReader read that does not fit in
// what is left fails and consumes nothing, so a truncated or corrupt input
// becomes a Status in the caller, never a read past the end.
#ifndef TFMR_UTIL_BYTES_H_
#define TFMR_UTIL_BYTES_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "util/status.h"

namespace llm::util {

static_assert(std::endian::native == std::endian::little,
              "checkpoints, the dist wire and telemetry are little-endian");

template <typename T>
inline constexpr bool kCodecScalar =
    std::is_arithmetic_v<T> && !std::is_same_v<T, bool>;

/// Appends scalars, strings and raw bytes to a buffer.
class ByteWriter {
 public:
  /// Reserves `capacity` bytes up front.
  explicit ByteWriter(size_t capacity = 0) { bytes_.reserve(capacity); }

  template <typename T>
  void Put(T v) {
    static_assert(kCodecScalar<T>);
    Bytes(&v, sizeof(v));
  }
  /// A u32 length, then the bytes.
  void String(const std::string& s);
  void Bytes(const void* data, size_t len);

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  /// Moves the buffer out; the writer is left empty.
  std::vector<uint8_t> Take() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

/// Reads what a ByteWriter wrote from a buffer it does not own.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  template <typename T>
  bool Get(T* v) {
    static_assert(kCodecScalar<T>);
    return Bytes(v, sizeof(T));
  }
  /// A u32 length of at most `max_len`, then that many bytes.
  bool String(std::string* s, size_t max_len);
  bool Bytes(void* out, size_t len);

  size_t pos() const { return pos_; }
  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::span<const uint8_t> bytes_;
  size_t pos_ = 0;
};

/// Writes `bytes` to `path`, created or truncated, with open, write and
/// close alone, so a dying worker can still write its postmortem.
Status WriteFile(const std::string& path, std::span<const uint8_t> bytes);

/// Writes `bytes` to "<path>.tmp", then renames it over `path`: a reader
/// sees the old file or the new one, never a torn one. Nothing is fsynced.
/// On failure the tmp file is removed.
Status ReplaceFile(const std::string& path, std::span<const uint8_t> bytes);

/// The whole file; NotFound when it is absent.
StatusOr<std::vector<uint8_t>> ReadFile(const std::string& path);

}  // namespace llm::util

#endif  // TFMR_UTIL_BYTES_H_
