// Forward-value and gradient-check tests for every differentiable op.
// Each analytic backward is compared against central-difference numerics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>

#include "core/graph.h"
#include "core/ops.h"
#include "util/rng.h"

namespace llm::core {
namespace {

/// Checks d(f)/d(x) analytically vs numerically. `f` must rebuild the graph
/// (reading x's current value) on every call and return a scalar.
void ExpectGradMatches(const std::function<Variable()>& f, Variable x,
                       float tol = 3e-2f, float eps = 1e-2f) {
  x.ZeroGrad();
  Variable loss = f();
  Backward(loss);
  const Tensor analytic = x.grad();
  const Tensor numeric = NumericalGradient(f, x, eps);
  for (int64_t i = 0; i < analytic.numel(); ++i) {
    const float scale =
        std::max({1.0f, std::fabs(analytic[i]), std::fabs(numeric[i])});
    EXPECT_NEAR(analytic[i], numeric[i], tol * scale)
        << "component " << i;
  }
}

Variable RandomVar(Shape shape, uint64_t seed, float scale = 1.0f) {
  util::Rng rng(seed);
  return Variable(Tensor::RandomNormal(std::move(shape), &rng, 0.0f, scale),
                  /*requires_grad=*/true);
}

TEST(OpsForward, AddSubMul) {
  Variable a(Tensor::FromVector({2}, {1, 2}));
  Variable b(Tensor::FromVector({2}, {10, 20}));
  EXPECT_FLOAT_EQ(Add(a, b).value()[1], 22.0f);
  EXPECT_FLOAT_EQ(Sub(a, b).value()[0], -9.0f);
  EXPECT_FLOAT_EQ(Mul(a, b).value()[1], 40.0f);
  EXPECT_FLOAT_EQ(ScalarMul(a, -2.0f).value()[0], -2.0f);
  EXPECT_FLOAT_EQ(AddScalar(a, 5.0f).value()[0], 6.0f);
  EXPECT_FLOAT_EQ(Neg(a).value()[1], -2.0f);
}

TEST(OpsForward, MatMulValues) {
  Variable a(Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6}));
  Variable b(Tensor::FromVector({3, 2}, {7, 8, 9, 10, 11, 12}));
  Tensor c = MatMul(a, b).value();
  EXPECT_FLOAT_EQ(c.At({0, 0}), 58.0f);
  EXPECT_FLOAT_EQ(c.At({0, 1}), 64.0f);
  EXPECT_FLOAT_EQ(c.At({1, 0}), 139.0f);
  EXPECT_FLOAT_EQ(c.At({1, 1}), 154.0f);
}

TEST(OpsForward, MatMulBtValues) {
  Variable a(Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6}));
  Variable b(Tensor::FromVector({2, 3}, {7, 8, 9, 10, 11, 12}));
  Tensor c = MatMulBt(a, b).value();
  ASSERT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(c.At({0, 0}), 50.0f);
  EXPECT_FLOAT_EQ(c.At({0, 1}), 68.0f);
  EXPECT_FLOAT_EQ(c.At({1, 0}), 122.0f);
  EXPECT_FLOAT_EQ(c.At({1, 1}), 167.0f);
}

// a b^T equals MatMul against b's transpose bit for bit: both sum each
// output from +0 in ascending order. Nine rows run a full lane group and a
// lone row.
TEST(OpsForward, MatMulBtEqualsMatMulOfTheTranspose) {
  Variable a = RandomVar({9, 5}, 3);
  Variable b = RandomVar({7, 5}, 4);
  Tensor bt({5, 7});
  for (int64_t n = 0; n < 7; ++n) {
    for (int64_t k = 0; k < 5; ++k) bt.At({k, n}) = b.value().At({n, k});
  }
  const Tensor want = MatMul(a, Variable(bt)).value();
  const Tensor got = MatMulBt(a, b).value();
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<size_t>(got.numel()) * sizeof(float)),
            0);
}

TEST(OpsForward, SoftmaxRowsSumToOne) {
  Variable x = RandomVar({4, 7}, 1);
  Tensor y = Softmax(x).value();
  for (int64_t r = 0; r < 4; ++r) {
    float sum = 0;
    for (int64_t c = 0; c < 7; ++c) sum += y.At({r, c});
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(OpsForward, SoftmaxInvariantToShift) {
  Variable x(Tensor::FromVector({1, 3}, {1, 2, 3}));
  Variable y(Tensor::FromVector({1, 3}, {101, 102, 103}));
  Tensor px = Softmax(x).value();
  Tensor py = Softmax(y).value();
  for (int64_t i = 0; i < 3; ++i) EXPECT_NEAR(px[i], py[i], 1e-5f);
}

TEST(OpsForward, CrossEntropyOfUniformIsLogV) {
  Variable logits(Tensor({5, 8}));  // all zeros -> uniform
  std::vector<int64_t> targets = {0, 1, 2, 3, 4};
  Variable loss = CrossEntropyLogits(logits, targets);
  EXPECT_NEAR(loss.value()[0], std::log(8.0f), 1e-5f);
}

TEST(OpsForward, CrossEntropyIgnoresMaskedRows) {
  util::Rng rng(2);
  Variable logits(Tensor::RandomNormal({4, 5}, &rng), true);
  std::vector<int64_t> all = {1, 2, 3, 4};
  std::vector<int64_t> masked = {1, -1, -1, 4};
  const float full = CrossEntropyLogits(logits, all).value()[0];
  const float partial = CrossEntropyLogits(logits, masked).value()[0];
  EXPECT_NE(full, partial);
  // Masked loss equals mean over the two unmasked rows.
  std::vector<int64_t> only1 = {1, -1, -1, -1};
  std::vector<int64_t> only4 = {-1, -1, -1, 4};
  const float l1 = CrossEntropyLogits(logits, only1).value()[0];
  const float l4 = CrossEntropyLogits(logits, only4).value()[0];
  EXPECT_NEAR(partial, 0.5f * (l1 + l4), 1e-5f);
}

TEST(OpsForward, EmbeddingPicksRows) {
  Variable w(Tensor::FromVector({3, 2}, {0, 1, 10, 11, 20, 21}));
  Tensor out = EmbeddingLookup(w, {2, 0, 2}).value();
  EXPECT_FLOAT_EQ(out.At({0, 1}), 21.0f);
  EXPECT_FLOAT_EQ(out.At({1, 0}), 0.0f);
  EXPECT_FLOAT_EQ(out.At({2, 0}), 20.0f);
}

TEST(OpsForward, LayerNormNormalizes) {
  Variable x = RandomVar({3, 16}, 5, 2.0f);
  Variable gamma(Tensor::Ones({16}));
  Variable beta(Tensor({16}));
  Tensor y = LayerNorm(x, gamma, beta).value();
  for (int64_t r = 0; r < 3; ++r) {
    double mean = 0, var = 0;
    for (int64_t c = 0; c < 16; ++c) mean += y.At({r, c});
    mean /= 16;
    for (int64_t c = 0; c < 16; ++c) {
      var += (y.At({r, c}) - mean) * (y.At({r, c}) - mean);
    }
    var /= 16;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(OpsForward, SliceAndConcatInverse) {
  Variable x = RandomVar({2, 6}, 6);
  Variable left = SliceLastDim(x, 0, 2);
  Variable right = SliceLastDim(x, 2, 4);
  Tensor rejoined = ConcatLastDim({left, right}).value();
  EXPECT_FLOAT_EQ(Tensor::MaxAbsDiff(rejoined, x.value()), 0.0f);
}

TEST(OpsForward, StackTimeLayout) {
  Variable t0(Tensor::FromVector({2, 2}, {1, 2, 3, 4}));
  Variable t1(Tensor::FromVector({2, 2}, {5, 6, 7, 8}));
  Tensor s = StackTime({t0, t1}).value();  // [B=2, T=2, C=2]
  EXPECT_FLOAT_EQ(s.At({0, 0, 0}), 1.0f);
  EXPECT_FLOAT_EQ(s.At({0, 1, 0}), 5.0f);
  EXPECT_FLOAT_EQ(s.At({1, 1, 1}), 8.0f);
}

TEST(OpsForward, GatherRowsSelects) {
  Variable x(Tensor::FromVector({3, 2}, {0, 1, 10, 11, 20, 21}));
  Tensor g = GatherRows(x, {1, 1, 0}).value();
  EXPECT_FLOAT_EQ(g.At({0, 0}), 10.0f);
  EXPECT_FLOAT_EQ(g.At({2, 1}), 1.0f);
}

TEST(OpsForward, DropoutTrainingMasksAndScales) {
  util::Rng rng(7);
  Variable x(Tensor::Ones({1000}), true);
  Variable y = Dropout(x, 0.25f, &rng, /*training=*/true);
  int64_t zeros = 0;
  for (int64_t i = 0; i < 1000; ++i) {
    if (y.value()[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(y.value()[i], 1.0f / 0.75f, 1e-5f);
    }
  }
  EXPECT_NEAR(zeros, 250, 60);
}

TEST(OpsForward, DropoutEvalIsIdentity) {
  util::Rng rng(7);
  Variable x = RandomVar({10}, 8);
  Variable y = Dropout(x, 0.5f, &rng, /*training=*/false);
  EXPECT_EQ(y.node().get(), x.node().get());
}

// ---------------------------------------------------------------------------
// Gradient checks.
// ---------------------------------------------------------------------------

TEST(OpsGrad, AddSubMulChain) {
  Variable a = RandomVar({2, 3}, 10);
  Variable b = RandomVar({2, 3}, 11);
  auto f = [&] { return SumAll(Mul(Add(a, b), Sub(a, b))); };
  ExpectGradMatches(f, a);
  ExpectGradMatches(f, b);
}

TEST(OpsGrad, ScalarOps) {
  Variable a = RandomVar({4}, 12);
  auto f = [&] { return MeanAll(AddScalar(ScalarMul(a, 1.7f), 0.3f)); };
  ExpectGradMatches(f, a);
}

// M = 3 reaches only a padded lane group of the input gradient's GemmBt,
// M = 9 a full group and a lone row.
TEST(OpsGrad, MatMulBothSides) {
  for (int64_t m : {3, 9}) {
    Variable a = RandomVar({m, 4}, 13, 0.5f);
    Variable b = RandomVar({4, 2}, 14, 0.5f);
    auto f = [&] { return SumAll(Mul(MatMul(a, b), MatMul(a, b))); };
    ExpectGradMatches(f, a);
    ExpectGradMatches(f, b);
  }
}

TEST(OpsGrad, MatMulBtBothSides) {
  for (int64_t m : {3, 9}) {
    Variable a = RandomVar({m, 4}, 15, 0.5f);
    Variable b = RandomVar({5, 4}, 16, 0.5f);
    auto f = [&] { return SumAll(Mul(MatMulBt(a, b), MatMulBt(a, b))); };
    ExpectGradMatches(f, a);
    ExpectGradMatches(f, b);
  }
}

TEST(OpsGrad, AddRowBroadcast) {
  Variable x = RandomVar({3, 4}, 16);
  Variable bias = RandomVar({4}, 17);
  auto f = [&] {
    Variable y = AddRowBroadcast(x, bias);
    return SumAll(Mul(y, y));
  };
  ExpectGradMatches(f, x);
  ExpectGradMatches(f, bias);
}

TEST(OpsGrad, Activations) {
  // Values away from the ReLU kink for clean numerics.
  Variable x(Tensor::FromVector({6}, {-2.0f, -0.7f, -0.2f, 0.3f, 0.9f, 1.8f}),
             true);
  ExpectGradMatches([&] { return SumAll(Relu(x)); }, x);
  ExpectGradMatches([&] { return SumAll(Gelu(x)); }, x);
  ExpectGradMatches([&] { return SumAll(Mul(TanhOp(x), TanhOp(x))); }, x);
  ExpectGradMatches([&] { return SumAll(SigmoidOp(x)); }, x);
}

TEST(OpsGrad, ReshapeSliceConcat) {
  Variable x = RandomVar({2, 6}, 18);
  auto f = [&] {
    Variable r = Reshape(x, {3, 4});
    Variable s = SliceLastDim(r, 1, 2);
    Variable c = ConcatLastDim({s, s});
    return SumAll(Mul(c, c));
  };
  ExpectGradMatches(f, x);
}

TEST(OpsGrad, StackTime) {
  Variable a = RandomVar({2, 3}, 19);
  Variable b = RandomVar({2, 3}, 20);
  auto f = [&] {
    Variable s = StackTime({a, b, a});
    return SumAll(Mul(s, s));
  };
  ExpectGradMatches(f, a);
  ExpectGradMatches(f, b);
}

TEST(OpsGrad, GatherRowsWithRepeats) {
  Variable x = RandomVar({4, 3}, 21);
  auto f = [&] {
    Variable g = GatherRows(x, {0, 2, 2, 3});
    return SumAll(Mul(g, g));
  };
  ExpectGradMatches(f, x);
}

TEST(OpsGrad, Softmax) {
  Variable x = RandomVar({3, 5}, 22);
  Variable weights = RandomVar({3, 5}, 23);
  auto f = [&] { return SumAll(Mul(Softmax(x), weights)); };
  ExpectGradMatches(f, x);
}

TEST(OpsGrad, CrossEntropy) {
  Variable logits = RandomVar({4, 6}, 24);
  std::vector<int64_t> targets = {1, 5, 0, 3};
  auto f = [&] { return CrossEntropyLogits(logits, targets); };
  ExpectGradMatches(f, logits);
}

TEST(OpsGrad, CrossEntropyWithIgnore) {
  Variable logits = RandomVar({4, 6}, 25);
  std::vector<int64_t> targets = {1, -1, 0, -1};
  auto f = [&] { return CrossEntropyLogits(logits, targets); };
  ExpectGradMatches(f, logits);
}

TEST(OpsGrad, MseLoss) {
  Variable pred = RandomVar({3, 2}, 26);
  util::Rng rng(27);
  Tensor target = Tensor::RandomNormal({3, 2}, &rng);
  auto f = [&] { return MseLoss(pred, target); };
  ExpectGradMatches(f, pred);
}

TEST(OpsGrad, Embedding) {
  Variable w = RandomVar({5, 3}, 28);
  std::vector<int64_t> ids = {0, 4, 4, 2};
  auto f = [&] {
    Variable e = EmbeddingLookup(w, ids);
    return SumAll(Mul(e, e));
  };
  ExpectGradMatches(f, w);
}

TEST(OpsGrad, LayerNormAllInputs) {
  Variable x = RandomVar({2, 8}, 29);
  Variable gamma = RandomVar({8}, 30, 0.5f);
  Variable beta = RandomVar({8}, 31, 0.5f);
  Variable weights = RandomVar({2, 8}, 32);
  auto f = [&] { return SumAll(Mul(LayerNorm(x, gamma, beta), weights)); };
  ExpectGradMatches(f, x, 4e-2f);
  ExpectGradMatches(f, gamma);
  ExpectGradMatches(f, beta);
}

TEST(OpsGrad, SharedNodeAccumulates) {
  // y = x*x + x: gradient must accumulate from both paths (2x + 1).
  Variable x(Tensor::FromVector({2}, {3.0f, -1.0f}), true);
  Variable loss = SumAll(Add(Mul(x, x), x));
  Backward(loss);
  EXPECT_NEAR(x.grad()[0], 7.0f, 1e-4f);
  EXPECT_NEAR(x.grad()[1], -1.0f, 1e-4f);
}

TEST(GraphTest, BackwardRequiresScalar) {
  Variable x = RandomVar({2, 2}, 33);
  EXPECT_DEATH(Backward(Add(x, x)), "scalar");
}

TEST(GraphTest, NoGradForFrozenLeaves) {
  Variable frozen(Tensor::Ones({3}), /*requires_grad=*/false);
  Variable live(Tensor::Ones({3}), /*requires_grad=*/true);
  Variable loss = SumAll(Mul(frozen, live));
  Backward(loss);
  EXPECT_FALSE(frozen.has_grad());
  EXPECT_TRUE(live.has_grad());
}

TEST(GraphTest, ZeroGradClears) {
  Variable x(Tensor::Ones({2}), true);
  Backward(SumAll(x));
  EXPECT_FLOAT_EQ(x.grad()[0], 1.0f);
  x.ZeroGrad();
  EXPECT_FLOAT_EQ(x.grad()[0], 0.0f);
}

}  // namespace
}  // namespace llm::core
