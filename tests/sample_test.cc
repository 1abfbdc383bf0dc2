// Tests for the decoding strategies (Eq. 8) and autoregressive generation.
#include <gtest/gtest.h>

#include <cmath>

#include "sample/sampler.h"
#include "train/optimizer.h"

namespace llm::sample {
namespace {

TEST(DistributionTest, GreedyIsOneHotArgmax) {
  const float logits[] = {0.1f, 2.0f, -1.0f};
  SamplerOptions opts;
  opts.temperature = 0.0f;
  auto p = DistributionFromLogits(logits, 3, opts);
  EXPECT_FLOAT_EQ(p[1], 1.0f);
  EXPECT_FLOAT_EQ(p[0] + p[2], 0.0f);
}

TEST(DistributionTest, TemperatureOneIsSoftmax) {
  const float logits[] = {0.0f, std::log(3.0f)};
  SamplerOptions opts;
  auto p = DistributionFromLogits(logits, 2, opts);
  EXPECT_NEAR(p[1] / p[0], 3.0f, 1e-4f);
}

TEST(DistributionTest, LowTemperatureSharpens) {
  const float logits[] = {0.0f, 1.0f};
  SamplerOptions cold, hot;
  cold.temperature = 0.25f;
  hot.temperature = 4.0f;
  auto pc = DistributionFromLogits(logits, 2, cold);
  auto ph = DistributionFromLogits(logits, 2, hot);
  EXPECT_GT(pc[1], ph[1]);
  EXPECT_GT(ph[0], pc[0]);
}

TEST(DistributionTest, TopKZeroesTail) {
  const float logits[] = {3.0f, 2.0f, 1.0f, 0.0f};
  SamplerOptions opts;
  opts.top_k = 2;
  auto p = DistributionFromLogits(logits, 4, opts);
  EXPECT_GT(p[0], 0.0f);
  EXPECT_GT(p[1], 0.0f);
  EXPECT_FLOAT_EQ(p[2], 0.0f);
  EXPECT_FLOAT_EQ(p[3], 0.0f);
  EXPECT_NEAR(p[0] + p[1], 1.0f, 1e-5f);
}

TEST(DistributionTest, TopPKeepsMinimalPrefix) {
  // Probabilities ~ (0.64, 0.24, 0.09, 0.03): top_p = 0.7 keeps two.
  const float logits[] = {2.0f, 1.0f, 0.0f, -1.0f};
  SamplerOptions opts;
  opts.top_p = 0.7f;
  auto p = DistributionFromLogits(logits, 4, opts);
  EXPECT_GT(p[0], 0.0f);
  EXPECT_GT(p[1], 0.0f);
  EXPECT_FLOAT_EQ(p[2], 0.0f);
  EXPECT_NEAR(p[0] + p[1], 1.0f, 1e-5f);
}

TEST(DistributionTest, TopKLargerThanVocabIsNoop) {
  const float logits[] = {1.0f, 0.5f, -0.5f, 0.0f};
  SamplerOptions plain, huge_k;
  huge_k.top_k = 100;  // > vocab: must not truncate anything
  auto p0 = DistributionFromLogits(logits, 4, plain);
  auto pk = DistributionFromLogits(logits, 4, huge_k);
  for (size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(pk[i], p0[i]);
}

TEST(DistributionTest, TopPNearOneWithTiesKeepsEverything) {
  // Four exactly-tied logits: probabilities 0.25 each. top_p = 0.999 must
  // keep all four (the cumulative sum only reaches 0.999 at the last one)
  // and renormalize to a proper distribution, not zero out tied tail
  // entries it happened to sort last.
  const float logits[] = {1.0f, 1.0f, 1.0f, 1.0f};
  SamplerOptions opts;
  opts.top_p = 0.999f;
  auto p = DistributionFromLogits(logits, 4, opts);
  float sum = 0.0f;
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(p[i], 0.25f, 1e-5f) << "index " << i;
    sum += p[i];
  }
  EXPECT_NEAR(sum, 1.0f, 1e-5f);
}

TEST(DistributionTest, TemperatureZeroAllEqualLogitsPicksFirst) {
  // Greedy tie-break is "first max wins" — the serving path relies on this
  // being deterministic so batched and single-stream outputs agree.
  const float logits[] = {0.7f, 0.7f, 0.7f};
  SamplerOptions opts;
  opts.temperature = 0.0f;
  auto p = DistributionFromLogits(logits, 3, opts);
  EXPECT_FLOAT_EQ(p[0], 1.0f);
  EXPECT_FLOAT_EQ(p[1], 0.0f);
  EXPECT_FLOAT_EQ(p[2], 0.0f);
  util::Rng rng(1);
  EXPECT_EQ(SampleFromLogits(logits, 3, opts, &rng), 0);
}

TEST(SampleTest, RespectsDistribution) {
  const float logits[] = {0.0f, std::log(4.0f)};
  SamplerOptions opts;
  util::Rng rng(1);
  int count1 = 0;
  for (int i = 0; i < 20000; ++i) {
    if (SampleFromLogits(logits, 2, opts, &rng) == 1) ++count1;
  }
  EXPECT_NEAR(static_cast<double>(count1) / 20000, 0.8, 0.02);
}

TEST(GenerateTest, EmitsRequestedLengthAndStops) {
  nn::GPTConfig cfg;
  cfg.vocab_size = 6;
  cfg.max_seq_len = 8;
  cfg.d_model = 16;
  cfg.n_layer = 1;
  cfg.n_head = 2;
  util::Rng rng(2);
  nn::GPTModel model(cfg, &rng);
  GenerateOptions opts;
  opts.max_new_tokens = 5;
  auto out = Generate(model, {1, 2}, opts, &rng);
  EXPECT_EQ(out.size(), 5u);
  for (int64_t t : out) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, 6);
  }
}

TEST(GenerateTest, GreedyIsDeterministicAndMemorizedSequenceComesBack) {
  // Train to memorize 0 1 2 3 4 5; greedy generation must reproduce it.
  nn::GPTConfig cfg;
  cfg.vocab_size = 8;
  cfg.max_seq_len = 8;
  cfg.d_model = 32;
  cfg.n_layer = 2;
  cfg.n_head = 2;
  util::Rng rng(3);
  nn::GPTModel model(cfg, &rng);
  std::vector<int64_t> tokens = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<int64_t> targets = {1, 2, 3, 4, 5, 6, 7, 0};
  train::AdamWOptions aopts;
  aopts.lr = 1e-2f;
  train::AdamW opt(model.Parameters(), aopts);
  for (int step = 0; step < 120; ++step) {
    core::Variable loss = model.LmLoss(tokens, targets, 1, 8);
    opt.ZeroGrad();
    core::Backward(loss);
    opt.Step();
  }
  GenerateOptions gopts;
  gopts.max_new_tokens = 5;
  gopts.sampler.temperature = 0.0f;
  auto out = Generate(model, {0}, gopts, &rng);
  EXPECT_EQ(out, (std::vector<int64_t>{1, 2, 3, 4, 5}));
}

TEST(GenerateTest, StopTokenEndsEarly) {
  nn::GPTConfig cfg;
  cfg.vocab_size = 4;
  cfg.max_seq_len = 8;
  cfg.d_model = 16;
  cfg.n_layer = 1;
  cfg.n_head = 1;
  util::Rng rng(4);
  nn::GPTModel model(cfg, &rng);
  GenerateOptions opts;
  opts.max_new_tokens = 50;
  opts.stop_token = 2;
  auto out = Generate(model, {0}, opts, &rng);
  // Either stopped early at a 2 or ran the full 50.
  if (out.size() < 50u) {
    EXPECT_EQ(out.back(), 2);
  }
}

TEST(GenerateTest, WindowsLongPrefixes) {
  nn::GPTConfig cfg;
  cfg.vocab_size = 4;
  cfg.max_seq_len = 4;  // shorter than the prefix below
  cfg.d_model = 16;
  cfg.n_layer = 1;
  cfg.n_head = 1;
  util::Rng rng(5);
  nn::GPTModel model(cfg, &rng);
  GenerateOptions opts;
  opts.max_new_tokens = 3;
  std::vector<int64_t> prefix = {0, 1, 2, 3, 0, 1, 2};
  auto out = Generate(model, prefix, opts, &rng);
  EXPECT_EQ(out.size(), 3u);
}

// --- Cached-path parity: sample::GenerateCached must agree with the
// uncached Generate under every decoding strategy (satellite of the
// serving runtime, which reuses the cached path per slot). The cached
// logits agree with the full forward to ~1e-4; with a fixed RNG stream the
// categorical draws land on the same tokens for these seeds.
class CachedParity : public ::testing::TestWithParam<SamplerOptions> {};

TEST_P(CachedParity, CachedMatchesUncached) {
  nn::GPTConfig cfg;
  cfg.vocab_size = 19;
  cfg.max_seq_len = 16;
  cfg.d_model = 24;
  cfg.n_layer = 2;
  cfg.n_head = 3;
  util::Rng rng(6);
  nn::GPTModel model(cfg, &rng);
  GenerateOptions opts;
  opts.max_new_tokens = 10;
  opts.sampler = GetParam();
  for (uint64_t seed : {1u, 2u, 3u}) {
    util::Rng r1(seed), r2(seed);
    auto slow = Generate(model, {2, 7, 1}, opts, &r1);
    auto fast = GenerateCached(model, {2, 7, 1}, opts, &r2);
    EXPECT_EQ(slow, fast) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, CachedParity,
    ::testing::Values(SamplerOptions{0.0f, 0, 0.0f},    // greedy
                      SamplerOptions{1.0f, 0, 0.0f},    // plain softmax
                      SamplerOptions{0.8f, 5, 0.0f},    // top-k
                      SamplerOptions{1.2f, 0, 0.9f},    // nucleus
                      SamplerOptions{0.7f, 4, 0.95f})); // top-k + top-p

TEST(CachedGenerateTest, StopTokenAsFirstTokenYieldsSingleToken) {
  nn::GPTConfig cfg;
  cfg.vocab_size = 11;
  cfg.max_seq_len = 12;
  cfg.d_model = 16;
  cfg.n_layer = 1;
  cfg.n_head = 2;
  util::Rng rng(7);
  nn::GPTModel model(cfg, &rng);
  // Find the greedy first token, then declare it the stop token: the very
  // first generated token terminates the request.
  nn::GptInferenceSession probe(&model);
  const std::vector<float>& logits = probe.Append(3);
  int64_t argmax = 0;
  for (int64_t v = 1; v < cfg.vocab_size; ++v) {
    if (logits[static_cast<size_t>(v)] >
        logits[static_cast<size_t>(argmax)]) {
      argmax = v;
    }
  }
  GenerateOptions opts;
  opts.max_new_tokens = 10;
  opts.sampler.temperature = 0.0f;
  opts.stop_token = argmax;
  util::Rng gen_rng(8);
  auto out = GenerateCached(model, {3}, opts, &gen_rng);
  EXPECT_EQ(out, (std::vector<int64_t>{argmax}));
}

TEST(CachedGenerateTest, SessionReuseMatchesFreshSessions) {
  nn::GPTConfig cfg;
  cfg.vocab_size = 13;
  cfg.max_seq_len = 10;
  cfg.d_model = 16;
  cfg.n_layer = 2;
  cfg.n_head = 2;
  util::Rng rng(9);
  nn::GPTModel model(cfg, &rng);
  GenerateOptions opts;
  opts.max_new_tokens = 6;
  opts.sampler.top_k = 4;
  nn::GptInferenceSession session(&model);
  const std::vector<std::vector<int64_t>> prefixes = {{1, 2}, {5}, {9, 3, 4}};
  // 6 new tokens end by length; 12 run into the window of 10.
  for (int64_t max_new : {6, 12}) {
    opts.max_new_tokens = max_new;
    for (const auto& prefix : prefixes) {
      util::Rng r1(42), r2(42);
      auto fresh = GenerateCached(model, prefix, opts, &r1);
      auto reused = GenerateWithSession(&session, prefix, opts, &r2);
      EXPECT_EQ(fresh, reused);
      // The last token is never fed: no step would read its logits.
      EXPECT_EQ(session.position(),
                static_cast<int64_t>(prefix.size() + reused.size()) - 1);
    }
  }
}

}  // namespace
}  // namespace llm::sample
