// Dense float32 tensor: the numeric substrate for every model in the repo.
//
// Deliberately simple — contiguous row-major storage, deep-copy semantics,
// no views — so that the autograd layer above it (graph.h) and the fused
// kernels (ops.cc) are easy to verify. All shape errors are programmer
// errors and abort via LLM_CHECK.
#ifndef TFMR_CORE_TENSOR_H_
#define TFMR_CORE_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <new>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/huge_pages.h"
#include "util/rng.h"

namespace llm::core {

using Shape = std::vector<int64_t>;

/// Number of elements implied by a shape (1 for rank-0).
int64_t NumElements(const Shape& shape);

/// "[2, 3, 4]" formatting for error messages.
std::string ShapeToString(const Shape& shape);

/// Where Tensor::RandomNormal's values come from. A util::Rng* converts to
/// a source that fills each tensor as it is made. Deferred(&fills) leaves
/// each tensor's storage unset and appends its fill to `fills` instead, so
/// that one later Rng::FillNormal(fills) writes what filling each tensor
/// as it was made would have; nothing may read or copy the tensors before
/// that. It holds no generator, so nothing draws while fills are pending.
class NormalSource {
 public:
  NormalSource(util::Rng* rng) : rng_(rng) {}  // NOLINT: converts implicitly
  static NormalSource Deferred(std::vector<util::NormalFill>* fills) {
    LLM_CHECK(fills != nullptr);
    return NormalSource(nullptr, fills);
  }

 private:
  friend class Tensor;
  NormalSource(util::Rng* rng, std::vector<util::NormalFill>* fills)
      : rng_(rng), fills_(fills) {}

  util::Rng* rng_;
  std::vector<util::NormalFill>* fills_ = nullptr;
};

/// Contiguous row-major float32 tensor.
class Tensor {
 public:
  /// Invalid tensor: no storage and an empty shape, which would mean a
  /// one-element scalar, so valid() is false. Assign to it before use.
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Deep copies: every element written once, by one memmove.
  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&&) noexcept = default;
  Tensor& operator=(Tensor&&) noexcept = default;

  static Tensor Zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor Full(Shape shape, float value);
  static Tensor Ones(Shape shape) { return Full(std::move(shape), 1.0f); }
  /// Scalar (rank-0) tensor.
  static Tensor Scalar(float value);
  /// Copies `data`, whose size must equal NumElements(shape).
  static Tensor FromVector(Shape shape, const std::vector<float>& data);
  /// I.i.d. normal entries with the given stddev, now or, from a deferred
  /// source, once its fills run.
  static Tensor RandomNormal(Shape shape, NormalSource source,
                             float mean = 0.0f, float stddev = 1.0f);
  /// I.i.d. uniform entries in [lo, hi).
  static Tensor RandomUniform(Shape shape, util::Rng* rng, float lo,
                              float hi);

  bool valid() const { return !data_.empty() || NumElements(shape_) == 0; }

  const Shape& shape() const { return shape_; }
  int ndim() const { return static_cast<int>(shape_.size()); }
  int64_t dim(int i) const;
  int64_t numel() const { return static_cast<int64_t>(data_.size()); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float& operator[](int64_t i) {
    LLM_CHECK_GE(i, 0);
    LLM_CHECK_LT(i, numel());
    return data_[static_cast<size_t>(i)];
  }
  float operator[](int64_t i) const {
    LLM_CHECK_GE(i, 0);
    LLM_CHECK_LT(i, numel());
    return data_[static_cast<size_t>(i)];
  }

  /// Multi-index access (rank must match argument count).
  float& At(std::initializer_list<int64_t> idx);
  float At(std::initializer_list<int64_t> idx) const;

  /// Returns a copy with a new shape; element count must match.
  Tensor Reshaped(Shape new_shape) const;

  /// In-place fills.
  void Fill(float value);
  void SetZero() { Fill(0.0f); }

  /// this += other (same shape).
  void Add(const Tensor& other);
  /// this += scale * other (same shape).
  void AddScaled(const Tensor& other, float scale);
  /// this *= scale.
  void Scale(float scale);

  /// Reductions.
  float Sum() const;
  float Mean() const;
  float MaxAbs() const;
  /// Squared L2 norm.
  float SquaredNorm() const;

  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }

  /// Max |a-b| over elements; shapes must match.
  static float MaxAbsDiff(const Tensor& a, const Tensor& b);

  std::string DebugString(int64_t max_elements = 16) const;

 private:
  // std::allocator whose value-less construct() leaves the element unset,
  // so resize() sizes fresh storage without writing it. A construct with a
  // value (assign, copies) falls back to std::construct_at and so still
  // writes every element. Storage of kHugePage bytes or more starts on a
  // huge-page boundary, so that all of it but its last partial page is
  // whole huge pages; the slack before it is never touched.
  template <typename T>
  struct DefaultInitAllocator : std::allocator<T> {
    DefaultInitAllocator() = default;
    template <typename U>
    DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}
    template <typename U>
    void construct(U* p) {
      ::new (static_cast<void*>(p)) U;
    }
    T* allocate(size_t n) {
      if (n * sizeof(T) < util::kHugePage) {
        return std::allocator<T>::allocate(n);
      }
      return static_cast<T*>(
          ::operator new(n * sizeof(T), std::align_val_t{util::kHugePage}));
    }
    void deallocate(T* p, size_t n) {
      if (n * sizeof(T) < util::kHugePage) {
        std::allocator<T>::deallocate(p, n);
        return;
      }
      ::operator delete(p, n * sizeof(T), std::align_val_t{util::kHugePage});
    }
  };

  // Storage for `shape` with every element unset, for the random
  // constructors, which write each one. Its pages stay untouched until
  // then, so a threaded fill takes their first-touch faults in parallel;
  // the whole 2 MiB pages inside it are advised as huge pages.
  static Tensor Unset(Shape shape);

  // Replaces the storage with a copy of src[0, n): sized unset, then
  // written by one memmove. (The vector's own copy would construct the
  // floats one at a time: only std::allocator gets the memmove path.)
  void CopyData(const float* src, size_t n);

  Shape shape_;
  std::vector<float, DefaultInitAllocator<float>> data_;
};

std::ostream& operator<<(std::ostream& os, const Tensor& t);

}  // namespace llm::core

#endif  // TFMR_CORE_TENSOR_H_
