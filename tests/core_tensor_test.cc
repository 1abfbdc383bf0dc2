// Tests for the Tensor substrate.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/tensor.h"
#include "nn/transformer.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace llm::core {
namespace {

// Bitwise equality of n floats; n == 0 compares no storage at all.
bool SameBits(const float* a, const float* b, size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(float)) == 0;
}

TEST(TensorTest, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.ndim(), 2);
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

// Random tensors leave their storage unset until the fill writes it. Every
// other constructor must still write each element, even into memory that a
// dropped random tensor has just handed back to malloc: 1,000 floats is a
// size malloc reuses at once, 300,000 one it serves from mmap at first.
TEST(TensorTest, ZeroInitializedOnReusedMemory) {
  for (const int64_t n : {int64_t{1000}, int64_t{300000}}) {
    SCOPED_TRACE(n);
    util::Rng rng(7);
    const auto dirty = [&] {
      const Tensor t = Tensor::RandomNormal({n}, &rng, 5.0f, 1.0f);
      ASSERT_EQ(t.numel(), n);
    };
    const auto holds = [n](const Tensor& t, float value) {
      const std::vector<float> want(static_cast<size_t>(n), value);
      return t.numel() == n && SameBits(t.data(), want.data(), want.size());
    };
    dirty();
    EXPECT_TRUE(holds(Tensor(Shape{n}), 0.0f));
    dirty();
    EXPECT_TRUE(holds(Tensor::Zeros({n}), 0.0f));
    dirty();
    EXPECT_TRUE(holds(Tensor::Ones({n}), 1.0f));
    dirty();
    EXPECT_TRUE(holds(Tensor::Full({n}, -3.5f), -3.5f));
    const Tensor source = Tensor::Full({n}, 2.0f);
    dirty();
    const Tensor copy(source);
    EXPECT_TRUE(holds(copy, 2.0f));
    Tensor assigned = Tensor::Full({3}, 9.0f);
    dirty();
    assigned = source;
    EXPECT_TRUE(holds(assigned, 2.0f));
  }
}

TEST(TensorTest, ScalarHasRankZero) {
  Tensor s = Tensor::Scalar(2.5f);
  EXPECT_EQ(s.ndim(), 0);
  EXPECT_EQ(s.numel(), 1);
  EXPECT_FLOAT_EQ(s[0], 2.5f);
}

TEST(TensorTest, FromVectorTakesData) {
  Tensor t = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(t.At({0, 1}), 2.0f);
  EXPECT_FLOAT_EQ(t.At({1, 0}), 3.0f);
}

TEST(TensorTest, MultiIndexMatchesFlat) {
  Tensor t = Tensor::FromVector({2, 3, 4}, [] {
    std::vector<float> v(24);
    for (size_t i = 0; i < 24; ++i) v[i] = static_cast<float>(i);
    return v;
  }());
  EXPECT_FLOAT_EQ(t.At({1, 2, 3}), 23.0f);
  EXPECT_FLOAT_EQ(t.At({0, 1, 0}), 4.0f);
}

TEST(TensorTest, ReshapePreservesData) {
  Tensor t = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = t.Reshaped({3, 2});
  EXPECT_EQ(r.ndim(), 2);
  EXPECT_EQ(r.dim(0), 3);
  EXPECT_FLOAT_EQ(r.At({2, 1}), 6.0f);
}

TEST(TensorTest, ArithmeticInPlace) {
  Tensor a = Tensor::FromVector({3}, {1, 2, 3});
  Tensor b = Tensor::FromVector({3}, {10, 20, 30});
  a.Add(b);
  EXPECT_FLOAT_EQ(a[2], 33.0f);
  a.AddScaled(b, -0.5f);
  EXPECT_FLOAT_EQ(a[0], 6.0f);
  a.Scale(2.0f);
  EXPECT_FLOAT_EQ(a[1], 24.0f);
}

TEST(TensorTest, Reductions) {
  Tensor t = Tensor::FromVector({4}, {1, -2, 3, -4});
  EXPECT_FLOAT_EQ(t.Sum(), -2.0f);
  EXPECT_FLOAT_EQ(t.Mean(), -0.5f);
  EXPECT_FLOAT_EQ(t.MaxAbs(), 4.0f);
  EXPECT_FLOAT_EQ(t.SquaredNorm(), 30.0f);
}

TEST(TensorTest, MaxAbsDiff) {
  Tensor a = Tensor::FromVector({2}, {1, 5});
  Tensor b = Tensor::FromVector({2}, {1.5, 4});
  EXPECT_FLOAT_EQ(Tensor::MaxAbsDiff(a, b), 1.0f);
}

TEST(TensorTest, RandomNormalStats) {
  util::Rng rng(42);
  Tensor t = Tensor::RandomNormal({10000}, &rng, 1.0f, 2.0f);
  EXPECT_NEAR(t.Mean(), 1.0f, 0.1f);
  double var = 0;
  for (int64_t i = 0; i < t.numel(); ++i) {
    var += (t[i] - t.Mean()) * (t[i] - t.Mean());
  }
  EXPECT_NEAR(var / static_cast<double>(t.numel()), 4.0, 0.3);
}

// {301, 1000} is large enough for the threaded fill, {7, 3} is filled
// inline and {0, 5} has no storage. {1025, 2049} is about 8 MiB: storage
// that spans whole 2 MiB pages, which Unset advises as huge pages, and
// partial ones at both ends (whether the kernel grants them is the host's
// setting, which the bytes must not depend on). Float mean/stddev as the
// nn layers pass them, and an odd draw before so the fill starts on a
// cached variate.
TEST(TensorTest, RandomNormalMatchesSequentialDraws) {
  for (const Shape& shape :
       {Shape{301, 1000}, Shape{7, 3}, Shape{0, 5}, Shape{1025, 2049}}) {
    SCOPED_TRACE(ShapeToString(shape));
    util::Rng fill(44), loop(44);
    fill.Normal();
    loop.Normal();
    Tensor t = Tensor::RandomNormal(shape, &fill, 0.5f, 0.02f);
    ASSERT_EQ(t.numel(), NumElements(shape));
    std::vector<float> want(static_cast<size_t>(t.numel()));
    for (float& v : want) v = static_cast<float>(loop.Normal(0.5f, 0.02f));
    EXPECT_TRUE(SameBits(t.data(), want.data(), want.size()));
    const util::RngState a = fill.SaveState();
    const util::RngState b = loop.SaveState();
    for (int i = 0; i < 4; ++i) EXPECT_EQ(a.s[i], b.s[i]);
    EXPECT_EQ(a.have_cached_normal, b.have_cached_normal);
    EXPECT_EQ(
        std::memcmp(&a.cached_normal, &b.cached_normal, sizeof(double)), 0);
  }
}

// The serving model bench_e2e builds (the config is a copy of
// ServingConfig() in bench/e2e/bench_e2e.cc): its weights, in
// NamedParameters() order, and the generator after them must keep their
// bytes across every change to weight init (threads, kernel copies,
// jumps, page advice).
TEST(TensorTest, ServingModelWeightsKeepTheirBytes) {
  nn::GPTConfig cfg;
  cfg.vocab_size = 32768;
  cfg.max_seq_len = 48;
  cfg.d_model = 256;
  cfg.n_layer = 2;
  cfg.n_head = 8;
  cfg.tie_embeddings = true;
  util::Rng rng(3);
  const nn::GPTModel model(cfg, &rng);
  uint32_t crc = 0;
  for (const auto& [name, param] : model.NamedParameters()) {
    const Tensor& w = param.value();
    crc = util::Crc32(w.data(), static_cast<size_t>(w.numel()) * sizeof(float),
                      crc);
  }
  EXPECT_EQ(crc, 0x0a2dcbf1u);
  const util::RngState state = rng.SaveState();
  EXPECT_FALSE(state.have_cached_normal);
  const double cached = 0x1.0695642a7a345p-3;
  EXPECT_EQ(std::memcmp(&state.cached_normal, &cached, sizeof(double)), 0);
  EXPECT_EQ(rng.NextU64(), 3785851527499389832ULL);
}

TEST(TensorTest, RandomUniformBounds) {
  util::Rng rng(43), loop(43);
  Tensor t = Tensor::RandomUniform({1000}, &rng, -2.0f, 3.0f);
  for (int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_GE(t[i], -2.0f);
    EXPECT_LT(t[i], 3.0f);
  }
  std::vector<float> want(static_cast<size_t>(t.numel()));
  for (float& v : want) v = static_cast<float>(loop.Uniform(-2.0f, 3.0f));
  EXPECT_TRUE(SameBits(t.data(), want.data(), want.size()));
}

TEST(TensorTest, DefaultIsInvalid) {
  Tensor t;
  EXPECT_FALSE(t.valid());
}

TEST(ShapeTest, NumElementsAndToString) {
  EXPECT_EQ(NumElements({2, 3, 4}), 24);
  EXPECT_EQ(NumElements({}), 1);
  EXPECT_EQ(NumElements({0, 5}), 0);
  EXPECT_EQ(ShapeToString({2, 3}), "[2, 3]");
}

}  // namespace
}  // namespace llm::core
