// Tests for the GPT model: config validation, shapes, causality at the
// model level, activation capture, interventions, weight tying, parameter
// accounting, and trainability (loss decreases on a memorizable task).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "nn/param_count.h"
#include "nn/transformer.h"
#include "train/optimizer.h"
#include "util/crc32.h"

namespace llm::nn {
namespace {

GPTConfig TinyConfig() {
  GPTConfig cfg;
  cfg.vocab_size = 11;
  cfg.max_seq_len = 8;
  cfg.d_model = 16;
  cfg.n_layer = 2;
  cfg.n_head = 2;
  return cfg;
}

TEST(GPTConfigTest, ValidatesDimensions) {
  GPTConfig cfg = TinyConfig();
  EXPECT_TRUE(cfg.Validate().ok());
  cfg.n_head = 3;  // 16 % 3 != 0
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = TinyConfig();
  cfg.vocab_size = 0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = TinyConfig();
  cfg.dropout = 1.5f;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(GPTConfigTest, HiddenDimDefaultsTo4x) {
  GPTConfig cfg = TinyConfig();
  EXPECT_EQ(cfg.hidden_dim(), 64);
  cfg.d_hidden = 32;
  EXPECT_EQ(cfg.hidden_dim(), 32);
}

TEST(GPTModelTest, LogitsShape) {
  util::Rng rng(1);
  GPTModel model(TinyConfig(), &rng);
  std::vector<int64_t> tokens(2 * 5, 3);
  core::Variable logits = model.ForwardLogits(tokens, 2, 5);
  EXPECT_EQ(logits.shape(), (core::Shape{10, 11}));
}

TEST(GPTModelTest, CausalAtModelLevel) {
  // Changing a later token must not change earlier logits.
  util::Rng rng(2);
  GPTModel model(TinyConfig(), &rng);
  std::vector<int64_t> a = {1, 2, 3, 4, 5, 6};
  std::vector<int64_t> b = {1, 2, 3, 9, 9, 9};
  core::Tensor la = model.ForwardLogits(a, 1, 6).value();
  core::Tensor lb = model.ForwardLogits(b, 1, 6).value();
  for (int64_t r = 0; r < 3; ++r) {
    for (int64_t v = 0; v < 11; ++v) {
      EXPECT_FLOAT_EQ(la.At({r, v}), lb.At({r, v})) << r << "," << v;
    }
  }
  // ...but later logits do change.
  float diff = 0;
  for (int64_t v = 0; v < 11; ++v) {
    diff += std::fabs(la.At({4, v}) - lb.At({4, v}));
  }
  EXPECT_GT(diff, 1e-4f);
}

TEST(GPTModelTest, ParamCountMatchesAnalytic) {
  for (bool attn_only : {false, true}) {
    for (bool tied : {false, true}) {
      for (bool learned_pos : {false, true}) {
        GPTConfig cfg = TinyConfig();
        cfg.attention_only = attn_only;
        cfg.tie_embeddings = tied;
        cfg.learned_positional = learned_pos;
        util::Rng rng(3);
        GPTModel model(cfg, &rng);
        EXPECT_EQ(model.NumParameters(), AnalyticGptParamCount(cfg))
            << "attn_only=" << attn_only << " tied=" << tied
            << " learned_pos=" << learned_pos;
      }
    }
  }
}

TEST(GPTModelTest, TiedEmbeddingsShareWeights) {
  GPTConfig cfg = TinyConfig();
  cfg.tie_embeddings = true;
  util::Rng rng(4);
  GPTModel model(cfg, &rng);
  // Gradient flows into the embedding from both uses.
  std::vector<int64_t> tokens = {1, 2, 3, 4};
  std::vector<int64_t> targets = {2, 3, 4, 5};
  core::Variable loss = model.LmLoss(tokens, targets, 1, 4);
  core::Backward(loss);
  EXPECT_GT(model.token_embedding().weight().grad().MaxAbs(), 0.0f);
}

// The tied training path's bytes: the logits, the loss and every parameter
// gradient after one LmLoss backward, on weights moved by N(0, 0.3) from
// init (so LayerNorm gains are not all 1). The vocabulary, 301, is not a
// multiple of eight, and B*T = 39 rows end on a partial lane group.
TEST(GPTModelTest, TiedTrainingKeepsItsBytes) {
  GPTConfig cfg;
  cfg.vocab_size = 301;
  cfg.max_seq_len = 13;
  cfg.d_model = 24;
  cfg.n_layer = 2;
  cfg.n_head = 2;
  cfg.tie_embeddings = true;
  util::Rng rng(21);
  GPTModel model(cfg, &rng);
  for (auto& named : model.NamedParameters()) {
    core::Tensor& v = named.second.mutable_value();
    for (int64_t i = 0; i < v.numel(); ++i) {
      v[i] += static_cast<float>(rng.Normal(0.0, 0.3));
    }
  }
  const int64_t B = 3, T = 13;
  std::vector<int64_t> tokens(static_cast<size_t>(B * T));
  std::vector<int64_t> targets(tokens.size());
  for (size_t i = 0; i < tokens.size(); ++i) {
    tokens[i] = static_cast<int64_t>(rng.UniformInt(cfg.vocab_size));
    targets[i] = static_cast<int64_t>(rng.UniformInt(cfg.vocab_size));
  }
  const auto crc_of = [](const core::Tensor& t, uint32_t crc) {
    return util::Crc32(t.data(), static_cast<size_t>(t.numel()) * sizeof(float),
                       crc);
  };
  uint32_t crc = crc_of(model.ForwardLogits(tokens, B, T).value(), 0);
  const core::Variable loss = model.LmLoss(tokens, targets, B, T);
  crc = crc_of(loss.value(), crc);
  core::Backward(loss);
  for (const auto& [name, param] : model.NamedParameters()) {
    crc = crc_of(param.grad(), crc);
  }
  EXPECT_EQ(crc, 0xde6555b5u);
}

TEST(GPTModelTest, SinusoidalPositionsAreFrozen) {
  GPTConfig cfg = TinyConfig();
  cfg.learned_positional = false;
  util::Rng rng(5);
  GPTModel model(cfg, &rng);
  // NamedParameters must not include pos_emb.
  for (const auto& [name, v] : model.NamedParameters()) {
    EXPECT_EQ(name.find("pos_emb"), std::string::npos);
  }
}

TEST(GPTModelTest, ActivationCaptureShapes) {
  util::Rng rng(6);
  GPTModel model(TinyConfig(), &rng);
  ActivationCapture cap;
  cap.capture_attention = true;
  ForwardOptions opts;
  opts.capture = &cap;
  std::vector<int64_t> tokens = {1, 2, 3, 4, 5, 6};
  model.ForwardLogits(tokens, 1, 6, opts);
  ASSERT_EQ(cap.residual.size(), 3u);  // embedding + 2 blocks
  EXPECT_EQ(cap.residual[0].shape(), (core::Shape{1, 6, 16}));
  ASSERT_EQ(cap.attention.size(), 2u);
  EXPECT_EQ(cap.attention[0].shape(), (core::Shape{1, 2, 6, 6}));
}

TEST(GPTModelTest, ForwardFromLayerMatchesFullForward) {
  util::Rng rng(7);
  GPTModel model(TinyConfig(), &rng);
  std::vector<int64_t> tokens = {1, 2, 3, 4};
  ActivationCapture cap;
  ForwardOptions opts;
  opts.capture = &cap;
  core::Tensor full = model.ForwardLogits(tokens, 1, 4, opts).value();
  // Resume from the residual stream after block 0 == apply blocks 1..N.
  core::Tensor resumed =
      model.ForwardFromLayer(cap.residual[1], 1).value();
  EXPECT_LT(core::Tensor::MaxAbsDiff(full, resumed), 1e-5f);
}

TEST(GPTModelTest, InterventionChangesPredictions) {
  util::Rng rng(8);
  GPTModel model(TinyConfig(), &rng);
  std::vector<int64_t> tokens = {1, 2, 3, 4};
  ActivationCapture cap;
  ForwardOptions opts;
  opts.capture = &cap;
  core::Tensor before = model.ForwardLogits(tokens, 1, 4, opts).value();
  core::Tensor edited = cap.residual[1].value();
  // Non-uniform edit: a uniform shift would be removed by layer norm.
  for (int64_t c = 0; c < 16; ++c) {
    edited.At({0, 3, c}) += (c % 2 == 0) ? 2.0f : -2.0f;
  }
  core::Tensor after =
      model.ForwardFromLayer(core::Variable(edited), 1).value();
  EXPECT_GT(core::Tensor::MaxAbsDiff(before, after), 1e-3f);
}

TEST(GPTModelTest, LossDecreasesOnMemorization) {
  GPTConfig cfg = TinyConfig();
  cfg.d_model = 32;
  util::Rng rng(9);
  GPTModel model(cfg, &rng);
  std::vector<int64_t> tokens = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int64_t> targets = {2, 3, 4, 5, 6, 7, 8, 9};
  train::AdamWOptions aopts;
  aopts.lr = 1e-2f;
  train::AdamW opt(model.Parameters(), aopts);
  float first = 0, last = 0;
  for (int step = 0; step < 60; ++step) {
    core::Variable loss = model.LmLoss(tokens, targets, 1, 8);
    if (step == 0) first = loss.value()[0];
    last = loss.value()[0];
    opt.ZeroGrad();
    core::Backward(loss);
    opt.Step();
  }
  EXPECT_LT(last, first * 0.2f) << "first " << first << " last " << last;
}

TEST(GPTModelTest, PostLnVariantRuns) {
  GPTConfig cfg = TinyConfig();
  cfg.pre_layernorm = false;
  util::Rng rng(10);
  GPTModel model(cfg, &rng);
  std::vector<int64_t> tokens = {1, 2, 3};
  core::Variable logits = model.ForwardLogits(tokens, 1, 3);
  EXPECT_EQ(logits.shape(), (core::Shape{3, 11}));
}

TEST(GPTModelTest, WindowedAttentionVariantRuns) {
  GPTConfig cfg = TinyConfig();
  cfg.attention_window = 2;
  util::Rng rng(11);
  GPTModel model(cfg, &rng);
  std::vector<int64_t> tokens = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(model.ForwardLogits(tokens, 1, 8).shape(),
            (core::Shape{8, 11}));
}

TEST(GPTModelTest, DropoutTrainingIsStochastic) {
  GPTConfig cfg = TinyConfig();
  cfg.dropout = 0.3f;
  util::Rng rng(12);
  GPTModel model(cfg, &rng);
  std::vector<int64_t> tokens = {1, 2, 3};
  util::Rng drop_rng(13);
  ForwardOptions opts;
  opts.training = true;
  opts.rng = &drop_rng;
  core::Tensor a = model.ForwardLogits(tokens, 1, 3, opts).value();
  core::Tensor b = model.ForwardLogits(tokens, 1, 3, opts).value();
  EXPECT_GT(core::Tensor::MaxAbsDiff(a, b), 1e-5f);
  // Eval mode is deterministic.
  core::Tensor c = model.ForwardLogits(tokens, 1, 3).value();
  core::Tensor d = model.ForwardLogits(tokens, 1, 3).value();
  EXPECT_EQ(core::Tensor::MaxAbsDiff(c, d), 0.0f);
}

}  // namespace
}  // namespace llm::nn
