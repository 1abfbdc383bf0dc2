// Tests for the Tensor substrate.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/tensor.h"
#include "nn/transformer.h"
#include "serve/serving_model.h"
#include "util/crc32.h"
#include "util/huge_pages.h"
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

// The serving model the serving benches and bench_e2e build: its weights,
// in NamedParameters() order, and the generator after them must keep their
// bytes across every change to weight init (threads, kernel copies,
// jumps, page advice, lanes).
TEST(TensorTest, ServingModelWeightsKeepTheirBytes) {
  util::Rng rng(3);
  const nn::GPTModel model(serve::ServingConfig(), &rng);
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

// GPTModel's random weights in construction order: each one's name in
// NamedParameters() and the stddev its module draws it with (mean 0).
std::vector<std::pair<std::string, float>> RandomWeights(
    const nn::GPTConfig& c) {
  const auto linear = [](int64_t in) {
    return 1.0f / std::sqrt(static_cast<float>(in));
  };
  std::vector<std::pair<std::string, float>> out = {{"tok_emb/weight", 0.02f}};
  if (c.learned_positional) out.emplace_back("pos_emb", 0.02f);
  for (int i = 0; i < c.n_layer; ++i) {
    const std::string block = "blocks/" + std::to_string(i) + "/";
    out.emplace_back(block + "attn/qkv/weight", linear(c.d_model));
    out.emplace_back(block + "attn/proj/weight", linear(c.d_model));
    if (!c.attention_only) {
      out.emplace_back(block + "mlp/fc_in/weight", linear(c.d_model));
      out.emplace_back(block + "mlp/fc_out/weight", linear(c.hidden_dim()));
    }
  }
  if (!c.tie_embeddings) out.emplace_back("head/weight", linear(c.d_model));
  return out;
}

// GPTModel fills all its weights in one FillNormal at the end of its
// constructor. Each weight, and the generator after, must equal a
// FillNormal of each weight in turn, in construction order. Tied and
// untied heads, learned and sinusoidal positions, an attention-only
// model, and odd widths and vocabularies, so that fills have odd counts
// and pairs cross from one weight into the next; a start on a cached
// variate; a tied embedding of 258,237 values, which every allowed CPU
// shares, and one over 2 MiB, whose huge page the team faults in.
TEST(TensorTest, GPTModelWeightsEqualFillsInConstructionOrder) {
  struct Case {
    const char* name;
    nn::GPTConfig config;
    bool cached;
  };
  std::vector<Case> cases;
  const auto config = [](int64_t vocab, int64_t seq, int64_t d, int layers,
                         int heads) {
    nn::GPTConfig c;
    c.vocab_size = vocab;
    c.max_seq_len = seq;
    c.d_model = d;
    c.n_layer = layers;
    c.n_head = heads;
    return c;
  };
  nn::GPTConfig c = config(4099, 33, 63, 2, 7);
  c.tie_embeddings = true;
  cases.push_back({"tied, learned, shared", c, false});
  c = config(37, 11, 9, 3, 3);
  c.learned_positional = false;
  cases.push_back({"untied, sinusoidal, odd", c, true});
  c = config(50, 16, 16, 2, 4);
  c.attention_only = true;
  cases.push_back({"attention-only", c, false});
  c = config(8209, 8, 65, 1, 5);
  c.tie_embeddings = true;
  cases.push_back({"tied embedding over 2 MiB", c, true});
  for (const Case& test : cases) {
    SCOPED_TRACE(test.name);
    util::Rng rng(17), each(17);
    if (test.cached) {
      rng.Normal();
      each.Normal();
    }
    const nn::GPTModel model(test.config, &rng);
    std::map<std::string, Tensor> params;
    for (const auto& [name, param] : model.NamedParameters()) {
      params.emplace(name, param.value());
    }
    for (const auto& [name, stddev] : RandomWeights(test.config)) {
      SCOPED_TRACE(name);
      ASSERT_EQ(params.count(name), 1u);
      const Tensor& w = params.at(name);
      std::vector<float> want(static_cast<size_t>(w.numel()));
      each.FillNormal(want.data(), want.size(), 0.0, stddev);
      EXPECT_TRUE(SameBits(w.data(), want.data(), want.size()));
    }
    const util::RngState a = rng.SaveState();
    const util::RngState b = each.SaveState();
    for (int i = 0; i < 4; ++i) EXPECT_EQ(a.s[i], b.s[i]);
    EXPECT_EQ(a.have_cached_normal, b.have_cached_normal);
    EXPECT_EQ(
        std::memcmp(&a.cached_normal, &b.cached_normal, sizeof(double)), 0);
    EXPECT_EQ(rng.NextU64(), each.NextU64());
  }
}

// Storage of 2 MiB or more starts on a huge-page boundary however the
// tensor is made, and a copy of a smaller tensor into it keeps that block.
// ASan checks that every such block goes back through the aligned delete,
// and one float short of 2 MiB through std::allocator's.
TEST(TensorTest, LargeStorageStartsOnAHugePage) {
  constexpr int64_t kFloats = util::kHugePage / sizeof(float);
  const auto aligned = [](const Tensor& t) {
    return reinterpret_cast<uintptr_t>(t.data()) % util::kHugePage == 0;
  };
  util::Rng rng(5);
  for (const int64_t n : {kFloats, kFloats + 3, 3 * kFloats + 1}) {
    SCOPED_TRACE(n);
    const Tensor zeros({n});
    const Tensor random = Tensor::RandomNormal({n}, &rng);
    const Tensor copy(random);
    Tensor grown = Tensor::Full({5}, 1.0f);
    grown = random;
    Tensor shrunk = Tensor::RandomNormal({n}, &rng);
    const Tensor small = Tensor::Full({7}, 2.0f);
    shrunk = small;
    EXPECT_TRUE(aligned(zeros));
    EXPECT_TRUE(aligned(random));
    EXPECT_TRUE(aligned(copy));
    EXPECT_TRUE(aligned(grown));
    EXPECT_TRUE(aligned(shrunk));
    EXPECT_TRUE(aligned(random.Reshaped({1, n})));
    EXPECT_EQ(zeros.MaxAbs(), 0.0f);
    EXPECT_TRUE(SameBits(copy.data(), random.data(), static_cast<size_t>(n)));
    EXPECT_TRUE(SameBits(grown.data(), random.data(), static_cast<size_t>(n)));
    EXPECT_EQ(shrunk.numel(), 7);
    EXPECT_EQ(shrunk.Sum(), 14.0f);
  }
  const Tensor below = Tensor::RandomNormal({kFloats - 1}, &rng);
  EXPECT_EQ(below.numel(), kFloats - 1);
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
