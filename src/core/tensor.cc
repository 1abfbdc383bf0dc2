#include "core/tensor.h"

#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>

namespace llm::core {

namespace {

// Advises huge pages for the whole 2 MiB pages inside [p, p + bytes), so
// the first write to each takes one fault instead of 512. The advice
// covers no byte outside the range: every byte under it is one the caller
// writes anyway, so it makes nothing resident that would not be. Whether
// the kernel grants huge pages is its own setting; the values never depend
// on it.
void AdviseHugePages(void* p, size_t bytes) {
  const util::Pages whole = util::WholePages(p, bytes, util::kHugePage);
  if (whole.begin < whole.end) {
    madvise(reinterpret_cast<void*>(whole.begin), whole.end - whole.begin,
            MADV_HUGEPAGE);
  }
}

}  // namespace

int64_t NumElements(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    LLM_CHECK_GE(d, 0);
    n *= d;
  }
  return n;
}

std::string ShapeToString(const Shape& shape) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << "]";
  return os.str();
}

Tensor::Tensor(Shape shape) : shape_(std::move(shape)) {
  data_.assign(static_cast<size_t>(NumElements(shape_)), 0.0f);
}

Tensor::Tensor(const Tensor& other) : shape_(other.shape_) {
  CopyData(other.data(), other.data_.size());
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this != &other) {
    shape_ = other.shape_;
    CopyData(other.data(), other.data_.size());
  }
  return *this;
}

void Tensor::CopyData(const float* src, size_t n) {
  data_.clear();
  data_.resize(n);
  std::copy(src, src + n, data_.data());
}

Tensor Tensor::Full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::Scalar(float value) {
  Tensor t{Shape{}};
  t.data_[0] = value;
  return t;
}

Tensor Tensor::FromVector(Shape shape, const std::vector<float>& data) {
  LLM_CHECK_EQ(static_cast<int64_t>(data.size()), NumElements(shape));
  Tensor t;
  t.shape_ = std::move(shape);
  t.CopyData(data.data(), data.size());
  return t;
}

Tensor Tensor::Unset(Shape shape) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_.resize(static_cast<size_t>(NumElements(t.shape_)));
  AdviseHugePages(t.data_.data(), t.data_.size() * sizeof(float));
  return t;
}

Tensor Tensor::RandomNormal(Shape shape, NormalSource source, float mean,
                            float stddev) {
  Tensor t = Unset(std::move(shape));
  if (source.fills_ != nullptr) {
    source.fills_->push_back({t.data_.data(), t.data_.size(), mean, stddev});
  } else {
    LLM_CHECK(source.rng_ != nullptr);
    source.rng_->FillNormal(t.data_.data(), t.data_.size(), mean, stddev);
  }
  return t;
}

Tensor Tensor::RandomUniform(Shape shape, util::Rng* rng, float lo, float hi) {
  LLM_CHECK(rng != nullptr);
  Tensor t = Unset(std::move(shape));
  for (auto& v : t.data_) {
    v = static_cast<float>(rng->Uniform(lo, hi));
  }
  return t;
}

int64_t Tensor::dim(int i) const {
  LLM_CHECK_GE(i, 0);
  LLM_CHECK_LT(i, ndim());
  return shape_[static_cast<size_t>(i)];
}

namespace {
int64_t FlatIndex(const Shape& shape, std::initializer_list<int64_t> idx) {
  LLM_CHECK_EQ(idx.size(), shape.size());
  int64_t flat = 0;
  size_t i = 0;
  for (int64_t v : idx) {
    LLM_CHECK_GE(v, 0);
    LLM_CHECK_LT(v, shape[i]);
    flat = flat * shape[i] + v;
    ++i;
  }
  return flat;
}
}  // namespace

float& Tensor::At(std::initializer_list<int64_t> idx) {
  return data_[static_cast<size_t>(FlatIndex(shape_, idx))];
}

float Tensor::At(std::initializer_list<int64_t> idx) const {
  return data_[static_cast<size_t>(FlatIndex(shape_, idx))];
}

Tensor Tensor::Reshaped(Shape new_shape) const {
  LLM_CHECK_EQ(NumElements(new_shape), numel())
      << "reshape " << ShapeToString(shape_) << " -> "
      << ShapeToString(new_shape);
  Tensor t = *this;
  t.shape_ = std::move(new_shape);
  return t;
}

void Tensor::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Tensor::Add(const Tensor& other) {
  LLM_CHECK(SameShape(other))
      << ShapeToString(shape_) << " vs " << ShapeToString(other.shape_);
  const float* src = other.data();
  float* dst = data();
  for (int64_t i = 0; i < numel(); ++i) dst[i] += src[i];
}

void Tensor::AddScaled(const Tensor& other, float scale) {
  LLM_CHECK(SameShape(other))
      << ShapeToString(shape_) << " vs " << ShapeToString(other.shape_);
  const float* src = other.data();
  float* dst = data();
  for (int64_t i = 0; i < numel(); ++i) dst[i] += scale * src[i];
}

void Tensor::Scale(float scale) {
  for (auto& v : data_) v *= scale;
}

float Tensor::Sum() const {
  double s = 0.0;
  for (float v : data_) s += v;
  return static_cast<float>(s);
}

float Tensor::Mean() const {
  LLM_CHECK_GT(numel(), 0);
  return Sum() / static_cast<float>(numel());
}

float Tensor::MaxAbs() const {
  float m = 0.0f;
  for (float v : data_) m = std::max(m, std::fabs(v));
  return m;
}

float Tensor::SquaredNorm() const {
  double s = 0.0;
  for (float v : data_) s += static_cast<double>(v) * v;
  return static_cast<float>(s);
}

float Tensor::MaxAbsDiff(const Tensor& a, const Tensor& b) {
  LLM_CHECK(a.SameShape(b));
  float m = 0.0f;
  for (int64_t i = 0; i < a.numel(); ++i) {
    m = std::max(m, std::fabs(a[i] - b[i]));
  }
  return m;
}

std::string Tensor::DebugString(int64_t max_elements) const {
  std::ostringstream os;
  os << "Tensor" << ShapeToString(shape_) << " {";
  int64_t n = std::min(max_elements, numel());
  for (int64_t i = 0; i < n; ++i) {
    if (i) os << ", ";
    os << data_[static_cast<size_t>(i)];
  }
  if (n < numel()) os << ", ...";
  os << "}";
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Tensor& t) {
  return os << t.DebugString();
}

}  // namespace llm::core
