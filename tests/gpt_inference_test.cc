// Tests for the KV-cache inference session: exact agreement with the
// training-path forward across every architecture variant, plus cached
// generation equivalence.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "nn/batched_decode.h"
#include "nn/gpt_inference.h"
#include "sample/sampler.h"

namespace llm::nn {
namespace {

struct Variant {
  bool pre_ln;
  bool learned_pos;
  bool attn_only;
  bool tied;
  int window;
  Activation act;
};

class InferenceVariants : public ::testing::TestWithParam<Variant> {};

GPTConfig ConfigFor(const Variant& v) {
  GPTConfig cfg;
  cfg.vocab_size = 17;
  cfg.max_seq_len = 12;
  cfg.d_model = 24;
  cfg.n_layer = 2;
  cfg.n_head = 3;
  cfg.pre_layernorm = v.pre_ln;
  cfg.learned_positional = v.learned_pos;
  cfg.attention_only = v.attn_only;
  cfg.tie_embeddings = v.tied;
  cfg.attention_window = v.window;
  cfg.activation = v.act;
  return cfg;
}

// Moves every parameter by N(0, 0.3) from its init, as training would: an
// untrained model's LayerNorm gains are all 1, and with a gain of 1 two
// different associations of LayerNorm's products round alike.
void Perturb(const GPTModel& model) {
  util::Rng rng(31);
  for (auto& named : model.NamedParameters()) {
    core::Tensor& v = named.second.mutable_value();
    for (int64_t i = 0; i < v.numel(); ++i) {
      v[i] += static_cast<float>(rng.Normal(0.0, 0.3));
    }
  }
}

// The session's logits equal the training forward's bit for bit: both run
// the row kernels of core/kernels.h.
TEST_P(InferenceVariants, MatchesFullForwardExactly) {
  util::Rng rng(11);
  GPTModel model(ConfigFor(GetParam()), &rng);
  Perturb(model);
  std::vector<int64_t> tokens = {3, 1, 4, 1, 5, 9, 2, 6};
  const auto T = static_cast<int64_t>(tokens.size());
  core::Tensor full = model.ForwardLogits(tokens, 1, T).value();

  GptInferenceSession session(&model);
  for (int64_t t = 0; t < T; ++t) {
    const std::vector<float>& row =
        session.Append(tokens[static_cast<size_t>(t)]);
    ASSERT_EQ(row.size(), 17u);
    EXPECT_EQ(std::memcmp(row.data(), full.data() + t * 17,
                          row.size() * sizeof(float)),
              0)
        << "position " << t << " differs from ForwardLogits";
  }
}

// The serving runtime's fused batched step must be bit-identical per
// sequence to the single-sequence session, for every architecture variant
// and regardless of batch composition (sequences here differ in content,
// length, and admission order). The nine prompts have lengths 1 to 9, so
// the first step is a full 8-lane group plus a lone lane, and as they
// retire every batch width from 9 down to 1 is compared at its step.
TEST_P(InferenceVariants, BatchedStepMatchesSessionBitExactly) {
  util::Rng rng(21);
  nn::GPTModel model(ConfigFor(GetParam()), &rng);
  Perturb(model);
  const nn::GPTConfig& cfg = model.config();
  const std::vector<std::vector<int64_t>> prompts = {
      {3, 1, 4, 1, 5}, {2, 7}, {9, 9, 8, 2, 6, 5, 3}, {0}, {11, 16, 13},
      {8, 4, 15, 2}, {6, 10, 1, 14, 7, 12}, {5, 3, 16, 0, 9, 11, 4, 2},
      {13, 7, 1, 6, 15, 8, 10, 3, 12}};
  const auto B = static_cast<int64_t>(prompts.size());

  // Reference: one single-sequence session per prompt, its logits kept
  // after every token.
  std::vector<std::vector<std::vector<float>>> want;
  for (const auto& p : prompts) {
    GptInferenceSession session(&model);
    want.emplace_back();
    for (int64_t t : p) want.back().push_back(session.Append(t));
  }

  // Batched: all sequences advance in lockstep; shorter ones retire early
  // (continuous-batching shape). Each sequence owns slab-backed views.
  const auto n_layer = static_cast<size_t>(cfg.n_layer);
  const auto per = static_cast<size_t>(cfg.max_seq_len * cfg.d_model);
  std::vector<std::vector<float>> slabs(static_cast<size_t>(B));
  std::vector<std::vector<nn::KvLayerView>> views(static_cast<size_t>(B));
  std::vector<std::vector<float>> got(
      static_cast<size_t>(B),
      std::vector<float>(static_cast<size_t>(cfg.vocab_size)));
  for (size_t b = 0; b < static_cast<size_t>(B); ++b) {
    slabs[b].resize(n_layer * 2 * per);
    views[b].resize(n_layer);
    for (size_t l = 0; l < n_layer; ++l) {
      views[b][l].keys = slabs[b].data() + (2 * l) * per;
      views[b][l].values = slabs[b].data() + (2 * l + 1) * per;
    }
  }
  nn::BatchedScratch scratch;
  size_t longest = 0;
  for (const auto& p : prompts) longest = std::max(longest, p.size());
  for (size_t step = 0; step < longest; ++step) {
    std::vector<nn::SeqStepInput> batch;
    std::vector<size_t> members;
    for (size_t b = 0; b < static_cast<size_t>(B); ++b) {
      if (step >= prompts[b].size()) continue;  // retired
      nn::SeqStepInput in;
      in.token = prompts[b][step];
      in.position = static_cast<int64_t>(step);
      in.layers = views[b].data();
      in.logits = got[b].data();
      batch.push_back(in);
      members.push_back(b);
    }
    nn::BatchedDecodeStep(model, batch.data(),
                          static_cast<int64_t>(batch.size()), &scratch);
    for (size_t b : members) {
      for (size_t v = 0; v < got[b].size(); ++v) {
        ASSERT_EQ(got[b][v], want[b][step][v])
            << "sequence " << b << " step " << step << " (batch width "
            << batch.size() << ") vocab " << v << " not bit-identical";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, InferenceVariants,
    ::testing::Values(
        Variant{true, true, false, false, 0, Activation::kGelu},
        Variant{false, true, false, false, 0, Activation::kGelu},
        Variant{true, false, false, false, 0, Activation::kRelu},
        Variant{true, true, true, false, 0, Activation::kGelu},
        Variant{true, true, false, true, 0, Activation::kTanh},
        Variant{true, true, false, false, 3, Activation::kGelu},
        Variant{false, false, true, true, 2, Activation::kGelu}));

TEST(GptInferenceTest, ResetStartsFresh) {
  util::Rng rng(12);
  GPTModel model(ConfigFor({true, true, false, false, 0,
                            Activation::kGelu}),
                 &rng);
  GptInferenceSession session(&model);
  std::vector<float> first = session.Append(5);
  session.Append(6);
  session.Reset();
  EXPECT_EQ(session.position(), 0);
  std::vector<float> again = session.Append(5);
  for (size_t v = 0; v < first.size(); ++v) {
    EXPECT_EQ(first[v], again[v]);
  }
}

TEST(GptInferenceTest, OverflowAborts) {
  util::Rng rng(13);
  GPTConfig cfg = ConfigFor({true, true, false, false, 0,
                             Activation::kGelu});
  cfg.max_seq_len = 3;
  GPTModel model(cfg, &rng);
  GptInferenceSession session(&model);
  session.Append(1);
  session.Append(2);
  session.Append(3);
  EXPECT_DEATH(session.Append(4), "window");
}

TEST(GptInferenceTest, GreedyCachedGenerationMatchesUncached) {
  util::Rng rng(14);
  GPTModel model(ConfigFor({true, true, false, false, 0,
                            Activation::kGelu}),
                 &rng);
  std::vector<int64_t> prefix = {2, 7};
  sample::GenerateOptions gopts;
  gopts.max_new_tokens = 8;
  gopts.sampler.temperature = 0.0f;
  util::Rng r1(1), r2(1);
  auto slow = sample::Generate(model, prefix, gopts, &r1);
  auto fast = sample::GenerateCached(model, prefix, gopts, &r2);
  EXPECT_EQ(slow, fast);
}

TEST(GptInferenceTest, StopTokenHonoured) {
  util::Rng rng(15);
  GPTModel model(ConfigFor({true, true, false, false, 0,
                            Activation::kGelu}),
                 &rng);
  sample::GenerateOptions gopts;
  gopts.max_new_tokens = 10;
  gopts.sampler.temperature = 1.0f;
  gopts.stop_token = 4;
  util::Rng gen_rng(2);
  auto out = sample::GenerateCached(model, {1}, gopts, &gen_rng);
  if (out.size() < 10u) {
    EXPECT_EQ(out.back(), 4);
  }
}

}  // namespace
}  // namespace llm::nn
