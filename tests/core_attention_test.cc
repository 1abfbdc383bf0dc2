// Tests for the fused multi-head causal attention op: probability
// structure, causality, windowing, head independence, and gradients.
#include <gtest/gtest.h>

#include <cmath>

#include "core/graph.h"
#include "core/ops.h"
#include "util/rng.h"

namespace llm::core {
namespace {

Variable RandomQkv(int64_t B, int64_t T, int64_t C, uint64_t seed,
                   float scale = 0.5f) {
  util::Rng rng(seed);
  return Variable(Tensor::RandomNormal({B, T, 3 * C}, &rng, 0.0f, scale),
                  /*requires_grad=*/true);
}

TEST(AttentionForward, ProbabilitiesAreCausalAndNormalized) {
  Variable qkv = RandomQkv(2, 5, 4, 1);
  Tensor probs;
  AttentionOptions opts;
  opts.num_heads = 2;
  opts.save_probs = &probs;
  MultiHeadCausalAttention(qkv, opts);
  ASSERT_EQ(probs.ndim(), 4);  // [B, H, T, T]
  const int64_t B = 2, H = 2, T = 5;
  for (int64_t b = 0; b < B; ++b) {
    for (int64_t h = 0; h < H; ++h) {
      for (int64_t i = 0; i < T; ++i) {
        float sum = 0;
        for (int64_t j = 0; j < T; ++j) {
          const float p = probs.At({b, h, i, j});
          if (j > i) {
            EXPECT_EQ(p, 0.0f) << "future leak at " << i << "," << j;
          }
          sum += p;
        }
        EXPECT_NEAR(sum, 1.0f, 1e-5f);
      }
    }
  }
}

TEST(AttentionForward, OutputIndependentOfFutureTokens) {
  Variable qkv = RandomQkv(1, 6, 4, 2);
  AttentionOptions opts;
  opts.num_heads = 2;
  Tensor out1 = MultiHeadCausalAttention(qkv, opts).value();
  // Perturb the last position's q/k/v; earlier outputs must not change.
  Variable qkv2(qkv.value());
  for (int64_t c = 0; c < 12; ++c) {
    qkv2.mutable_value().At({0, 5, c}) += 10.0f;
  }
  Tensor out2 = MultiHeadCausalAttention(qkv2, opts).value();
  for (int64_t t = 0; t < 5; ++t) {
    for (int64_t c = 0; c < 4; ++c) {
      EXPECT_FLOAT_EQ(out1.At({0, t, c}), out2.At({0, t, c}));
    }
  }
}

TEST(AttentionForward, FirstPositionCopiesItsValue) {
  // Position 0 can only attend to itself, so output = its value row.
  Variable qkv = RandomQkv(1, 3, 6, 3);
  AttentionOptions opts;
  opts.num_heads = 3;
  Tensor out = MultiHeadCausalAttention(qkv, opts).value();
  for (int64_t c = 0; c < 6; ++c) {
    EXPECT_NEAR(out.At({0, 0, c}), qkv.value().At({0, 0, 12 + c}), 1e-5f);
  }
}

TEST(AttentionForward, WindowLimitsContext) {
  Variable qkv = RandomQkv(1, 8, 4, 4);
  Tensor probs;
  AttentionOptions opts;
  opts.num_heads = 1;
  opts.window = 3;
  opts.save_probs = &probs;
  MultiHeadCausalAttention(qkv, opts);
  for (int64_t i = 0; i < 8; ++i) {
    for (int64_t j = 0; j < 8; ++j) {
      const float p = probs.At({0, 0, i, j});
      const bool allowed = j <= i && j >= i - 2;  // window of 3
      if (!allowed) {
        EXPECT_EQ(p, 0.0f) << i << "," << j;
      }
    }
  }
}

TEST(AttentionForward, HeadsAreIndependent) {
  // Changing only head 1's slice of K must not change head 0's output.
  const int64_t C = 8, H = 2, hd = 4, T = 4;
  Variable qkv = RandomQkv(1, T, C, 5);
  AttentionOptions opts;
  opts.num_heads = static_cast<int>(H);
  Tensor out1 = MultiHeadCausalAttention(qkv, opts).value();
  Variable qkv2(qkv.value());
  for (int64_t t = 0; t < T; ++t) {
    for (int64_t c = 0; c < hd; ++c) {
      qkv2.mutable_value().At({0, t, C + hd + c}) += 3.0f;  // head 1 keys
    }
  }
  Tensor out2 = MultiHeadCausalAttention(qkv2, opts).value();
  for (int64_t t = 0; t < T; ++t) {
    for (int64_t c = 0; c < hd; ++c) {
      EXPECT_FLOAT_EQ(out1.At({0, t, c}), out2.At({0, t, c}));
    }
  }
}

TEST(AttentionGrad, MatchesNumerical) {
  Variable qkv = RandomQkv(1, 4, 4, 6, 0.4f);
  util::Rng wrng(7);
  Tensor weights = Tensor::RandomNormal({1, 4, 4}, &wrng);
  AttentionOptions opts;
  opts.num_heads = 2;
  auto f = [&] {
    Variable out = MultiHeadCausalAttention(qkv, opts);
    return SumAll(Mul(out, Variable(weights)));
  };
  qkv.ZeroGrad();
  Variable loss = f();
  Backward(loss);
  const Tensor analytic = qkv.grad();
  const Tensor numeric = NumericalGradient(f, qkv, 1e-2f);
  for (int64_t i = 0; i < analytic.numel(); ++i) {
    const float scale =
        std::max({1.0f, std::fabs(analytic[i]), std::fabs(numeric[i])});
    EXPECT_NEAR(analytic[i], numeric[i], 3e-2f * scale) << "component " << i;
  }
}

TEST(AttentionGrad, WindowedMatchesNumerical) {
  Variable qkv = RandomQkv(1, 6, 2, 8, 0.4f);
  util::Rng wrng(9);
  Tensor weights = Tensor::RandomNormal({1, 6, 2}, &wrng);
  AttentionOptions opts;
  opts.num_heads = 1;
  opts.window = 2;
  auto f = [&] {
    Variable out = MultiHeadCausalAttention(qkv, opts);
    return SumAll(Mul(out, Variable(weights)));
  };
  qkv.ZeroGrad();
  Backward(f());
  const Tensor analytic = qkv.grad();
  const Tensor numeric = NumericalGradient(f, qkv, 1e-2f);
  for (int64_t i = 0; i < analytic.numel(); ++i) {
    const float scale =
        std::max({1.0f, std::fabs(analytic[i]), std::fabs(numeric[i])});
    EXPECT_NEAR(analytic[i], numeric[i], 3e-2f * scale) << "component " << i;
  }
}

}  // namespace
}  // namespace llm::core
