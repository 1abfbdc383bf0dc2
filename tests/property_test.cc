// Parameterized property tests: invariants checked across sweeps of
// shapes, seeds, orders, and configurations (TEST_P / INSTANTIATE_TEST_SUITE_P).
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/graph.h"
#include "core/ops.h"
#include "data/pcfg_corpus.h"
#include "data/word_problems.h"
#include "grammar/cnf.h"
#include "grammar/earley.h"
#include "ngram/ngram.h"
#include "nn/transformer.h"
#include "othello/othello.h"
#include "sample/sampler.h"
#include "text/bpe.h"

namespace llm {
namespace {

// ---------------------------------------------------------------------------
// Property: MatMul gradients match numerics for any (M, K, N).
// ---------------------------------------------------------------------------
class MatMulShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulShapes, GradientMatchesNumeric) {
  auto [m, k, n] = GetParam();
  util::Rng rng(static_cast<uint64_t>(m * 100 + k * 10 + n));
  core::Variable a(core::Tensor::RandomNormal({m, k}, &rng, 0.0f, 0.5f),
                   true);
  core::Variable b(core::Tensor::RandomNormal({k, n}, &rng, 0.0f, 0.5f),
                   true);
  auto f = [&] {
    core::Variable y = core::MatMul(a, b);
    return core::SumAll(core::Mul(y, y));
  };
  a.ZeroGrad();
  core::Backward(f());
  const core::Tensor analytic = a.grad();
  const core::Tensor numeric = core::NumericalGradient(f, a, 1e-2f);
  for (int64_t i = 0; i < analytic.numel(); ++i) {
    const float scale = std::max(
        {1.0f, std::fabs(analytic[i]), std::fabs(numeric[i])});
    ASSERT_NEAR(analytic[i], numeric[i], 4e-2f * scale);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 5, 3),
                      std::make_tuple(4, 1, 4), std::make_tuple(3, 7, 2),
                      std::make_tuple(6, 6, 6)));

// ---------------------------------------------------------------------------
// Property: softmax rows are probability vectors for any shape/seed.
// ---------------------------------------------------------------------------
class SoftmaxShapes
    : public ::testing::TestWithParam<std::tuple<int, int, uint64_t>> {};

TEST_P(SoftmaxShapes, RowsAreDistributions) {
  auto [rows, cols, seed] = GetParam();
  util::Rng rng(seed);
  core::Variable x(
      core::Tensor::RandomNormal({rows, cols}, &rng, 0.0f, 3.0f));
  core::Tensor y = core::Softmax(x).value();
  for (int64_t r = 0; r < rows; ++r) {
    double sum = 0;
    for (int64_t c = 0; c < cols; ++c) {
      const float p = y.At({r, c});
      ASSERT_GE(p, 0.0f);
      ASSERT_LE(p, 1.0f);
      sum += p;
    }
    ASSERT_NEAR(sum, 1.0, 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SoftmaxShapes,
    ::testing::Combine(::testing::Values(1, 3, 8),
                       ::testing::Values(2, 17, 64),
                       ::testing::Values(1u, 2u)));

// ---------------------------------------------------------------------------
// Property: causal attention never leaks the future, for any head count
// and window.
// ---------------------------------------------------------------------------
class AttentionConfigs
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AttentionConfigs, NoFutureLeak) {
  auto [heads, window] = GetParam();
  const int64_t T = 7, C = 12;
  util::Rng rng(static_cast<uint64_t>(heads * 10 + window));
  core::Variable qkv(
      core::Tensor::RandomNormal({1, T, 3 * C}, &rng, 0.0f, 0.5f));
  core::AttentionOptions opts;
  opts.num_heads = heads;
  opts.window = window;
  core::Tensor out1 = core::MultiHeadCausalAttention(qkv, opts).value();
  core::Variable qkv2(qkv.value());
  for (int64_t c = 0; c < 3 * C; ++c) {
    qkv2.mutable_value().At({0, T - 1, c}) += 7.0f;
  }
  core::Tensor out2 = core::MultiHeadCausalAttention(qkv2, opts).value();
  for (int64_t t = 0; t < T - 1; ++t) {
    for (int64_t c = 0; c < C; ++c) {
      ASSERT_EQ(out1.At({0, t, c}), out2.At({0, t, c}));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AttentionConfigs,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 6),
                       ::testing::Values(0, 1, 3)));

// ---------------------------------------------------------------------------
// Property: N-gram conditionals are normalized for any order and corpus.
// ---------------------------------------------------------------------------
class NgramOrders : public ::testing::TestWithParam<int> {};

TEST_P(NgramOrders, ConditionalsNormalized) {
  const int order = GetParam();
  const int64_t vocab = 6;
  util::Rng rng(static_cast<uint64_t>(order));
  std::vector<int64_t> stream;
  for (int i = 0; i < 500; ++i) {
    stream.push_back(static_cast<int64_t>(rng.UniformInt(vocab)));
  }
  ngram::NgramModel model(order, vocab, 0.1);
  model.Fit(stream);
  // Check several contexts, seen and unseen.
  for (uint64_t trial = 0; trial < 10; ++trial) {
    std::vector<int64_t> ctx;
    for (int j = 0; j + 1 < order; ++j) {
      ctx.push_back(static_cast<int64_t>(rng.UniformInt(vocab)));
    }
    double sum = 0;
    for (int64_t w = 0; w < vocab; ++w) sum += model.CondProb(ctx, w);
    ASSERT_NEAR(sum, 1.0, 1e-9);
  }
  // Perplexity bounded by smoothed extremes.
  ASSERT_GE(model.Perplexity(stream), 1.0);
  ASSERT_LE(model.Perplexity(stream), static_cast<double>(vocab) * 1.1);
}

INSTANTIATE_TEST_SUITE_P(Orders, NgramOrders, ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------------------
// Property: every sentence the PCFG samples is (a) accepted by Earley,
// (b) derivable under the CNF conversion with sentence probability at
// least the sampled tree's probability.
// ---------------------------------------------------------------------------
class GrammarSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GrammarSeeds, SamplesAreParseable) {
  grammar::Grammar g = grammar::ArithmeticGrammar();
  grammar::EarleyParser parser(&g);
  auto cnf = grammar::ToCnf(g);
  ASSERT_TRUE(cnf.ok());
  util::Rng rng(GetParam());
  for (int i = 0; i < 10; ++i) {
    auto tree = g.SampleTree(&rng, 40);
    if (!tree.ok()) continue;
    auto leaves = grammar::Grammar::TreeLeaves(**tree);
    ASSERT_TRUE(parser.Recognize(leaves)) << g.TreeYield(**tree);
    const double inside = grammar::InsideLogProb(*cnf, leaves);
    ASSERT_GE(inside, g.TreeLogProb(**tree) - 1e-6);
    ASSERT_LE(inside, 1e-9);  // log prob <= 0
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GrammarSeeds,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---------------------------------------------------------------------------
// Property: for *random* PCFGs, every sampled sentence is accepted by
// Earley and carries inside probability >= its own derivation (fuzzing the
// grammar pipeline end to end).
// ---------------------------------------------------------------------------
grammar::Grammar RandomGrammar(uint64_t seed) {
  util::Rng rng(seed);
  grammar::Grammar g;
  const int num_nt = 2 + static_cast<int>(rng.UniformInt(3));
  const int num_term = 2 + static_cast<int>(rng.UniformInt(4));
  // Built by appending, not as "N" + std::to_string(i): GCC 12 warns
  // (-Wrestrict) on that form.
  auto name = [](char prefix, int i) {
    std::string s(1, prefix);
    s += std::to_string(i);
    return s;
  };
  auto nt = [&](int i) { return name('N', i); };
  auto term = [&](int i) { return name('t', i); };
  // Every nonterminal gets a guaranteed terminal rule (termination) plus
  // 1-2 random expansion rules over nonterminals/terminals.
  for (int i = 0; i < num_nt; ++i) {
    LLM_CHECK(g.AddRule(nt(i),
                        {term(static_cast<int>(
                            rng.UniformInt(static_cast<uint64_t>(num_term))))},
                        2.0)
                  .ok());
    const int extra = 1 + static_cast<int>(rng.UniformInt(2));
    for (int r = 0; r < extra; ++r) {
      std::vector<std::string> rhs;
      const int len = 1 + static_cast<int>(rng.UniformInt(3));
      for (int k = 0; k < len; ++k) {
        if (rng.Bernoulli(0.5)) {
          rhs.push_back(nt(static_cast<int>(
              rng.UniformInt(static_cast<uint64_t>(num_nt)))));
        } else {
          rhs.push_back(term(static_cast<int>(
              rng.UniformInt(static_cast<uint64_t>(num_term)))));
        }
      }
      LLM_CHECK(g.AddRule(nt(i), rhs, 1.0).ok());
    }
  }
  LLM_CHECK(g.Finalize(nt(0)).ok());
  return g;
}

class RandomGrammarSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomGrammarSeeds, PipelineAgreesOnRandomGrammars) {
  grammar::Grammar g = RandomGrammar(GetParam());
  grammar::EarleyParser parser(&g);
  auto cnf = grammar::ToCnf(g);
  ASSERT_TRUE(cnf.ok()) << cnf.status();
  ASSERT_TRUE(cnf->Validate().ok());
  util::Rng rng(GetParam() + 1000);
  int checked = 0;
  for (int i = 0; i < 25 && checked < 8; ++i) {
    auto tree = g.SampleTree(&rng, 30);
    if (!tree.ok()) continue;
    auto leaves = grammar::Grammar::TreeLeaves(**tree);
    if (leaves.size() > 12) continue;
    ASSERT_TRUE(parser.Recognize(leaves)) << g.TreeYield(**tree);
    const double inside = grammar::InsideLogProb(*cnf, leaves);
    ASSERT_GE(inside, g.TreeLogProb(**tree) - 1e-6);
    ASSERT_LE(inside, 1e-9);
    ++checked;
  }
  ASSERT_GE(checked, 1);
}

INSTANTIATE_TEST_SUITE_P(Fuzz, RandomGrammarSeeds,
                         ::testing::Range<uint64_t>(100, 112));

// ---------------------------------------------------------------------------
// Property: BPE encode/decode round-trips whitespace-normalized text for
// any merge budget.
// ---------------------------------------------------------------------------
class BpeMerges : public ::testing::TestWithParam<int> {};

TEST_P(BpeMerges, RoundTrip) {
  const std::string corpus =
      "the cat sat on the mat the dog sat on the log a cat and a dog";
  text::Bpe bpe;
  bpe.Train(corpus, GetParam());
  for (const char* sentence :
       {"the cat sat", "a dog on the log", "mat log cat dog"}) {
    ASSERT_EQ(bpe.Decode(bpe.Encode(sentence)), sentence);
  }
}

INSTANTIATE_TEST_SUITE_P(Merges, BpeMerges,
                         ::testing::Values(0, 1, 5, 20, 100));

// ---------------------------------------------------------------------------
// Property: Othello invariants hold for every random game: disc count
// grows by one per move, snapshots replay exactly, terminal states have
// no legal moves for either player.
// ---------------------------------------------------------------------------
class OthelloSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OthelloSeeds, GameInvariants) {
  util::Rng rng(GetParam());
  othello::Game game = othello::RandomGame(&rng);
  othello::Board board;
  int discs = 4;
  for (size_t i = 0; i < game.moves.size(); ++i) {
    ASSERT_TRUE(board.IsLegal(game.moves[i]));
    ASSERT_TRUE(board.Apply(game.moves[i]).ok());
    ++discs;
    ASSERT_EQ(board.CountDiscs(othello::Cell::kBlack) +
                  board.CountDiscs(othello::Cell::kWhite),
              discs);
    ASSERT_EQ(board.Snapshot(), game.boards[i]);
  }
  ASSERT_TRUE(board.IsTerminal());
  ASSERT_FALSE(board.HasLegalMove());
}

INSTANTIATE_TEST_SUITE_P(Seeds, OthelloSeeds,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

// ---------------------------------------------------------------------------
// Property: sampler distributions are valid and truncation keeps at
// least the argmax, for any (temperature, top_k, top_p).
// ---------------------------------------------------------------------------
class SamplerConfigs
    : public ::testing::TestWithParam<std::tuple<float, int, float>> {};

TEST_P(SamplerConfigs, DistributionValidAndKeepsArgmax) {
  auto [temp, top_k, top_p] = GetParam();
  util::Rng rng(5);
  std::vector<float> logits(16);
  for (auto& l : logits) l = static_cast<float>(rng.Normal(0.0, 2.0));
  sample::SamplerOptions opts;
  opts.temperature = temp;
  opts.top_k = top_k;
  opts.top_p = top_p;
  auto p = sample::DistributionFromLogits(logits.data(), 16, opts);
  double sum = 0;
  int64_t argmax = 0;
  for (int64_t i = 0; i < 16; ++i) {
    ASSERT_GE(p[static_cast<size_t>(i)], 0.0f);
    sum += p[static_cast<size_t>(i)];
    if (logits[static_cast<size_t>(i)] > logits[static_cast<size_t>(argmax)]) {
      argmax = i;
    }
  }
  ASSERT_NEAR(sum, 1.0, 1e-4);
  ASSERT_GT(p[static_cast<size_t>(argmax)], 0.0f);  // argmax never pruned
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SamplerConfigs,
    ::testing::Combine(::testing::Values(0.0f, 0.5f, 1.0f, 2.0f),
                       ::testing::Values(0, 1, 4),
                       ::testing::Values(0.0f, 0.5f, 0.95f)));

// ---------------------------------------------------------------------------
// Property: GPT logits shapes/finiteness across architecture variants.
// ---------------------------------------------------------------------------
struct GptVariant {
  bool pre_ln;
  bool learned_pos;
  bool attn_only;
  bool tied;
  int window;
};

class GptVariants : public ::testing::TestWithParam<GptVariant> {};

TEST_P(GptVariants, ForwardBackwardFinite) {
  const GptVariant v = GetParam();
  nn::GPTConfig cfg;
  cfg.vocab_size = 13;
  cfg.max_seq_len = 10;
  cfg.d_model = 16;
  cfg.n_layer = 2;
  cfg.n_head = 2;
  cfg.pre_layernorm = v.pre_ln;
  cfg.learned_positional = v.learned_pos;
  cfg.attention_only = v.attn_only;
  cfg.tie_embeddings = v.tied;
  cfg.attention_window = v.window;
  util::Rng rng(3);
  nn::GPTModel model(cfg, &rng);
  std::vector<int64_t> tokens = {1, 2, 3, 4, 5, 6};
  std::vector<int64_t> targets = {2, 3, 4, 5, 6, 7};
  core::Variable loss = model.LmLoss(tokens, targets, 1, 6);
  ASSERT_TRUE(std::isfinite(loss.value()[0]));
  core::Backward(loss);
  for (const auto& p : model.Parameters()) {
    ASSERT_TRUE(std::isfinite(p.grad().MaxAbs()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, GptVariants,
    ::testing::Values(GptVariant{true, true, false, false, 0},
                      GptVariant{false, true, false, false, 0},
                      GptVariant{true, false, false, false, 0},
                      GptVariant{true, true, true, false, 0},
                      GptVariant{true, true, false, true, 0},
                      GptVariant{true, false, true, true, 2},
                      GptVariant{false, false, false, false, 3}));

// ---------------------------------------------------------------------------
// Property: word-problem encodings are self-consistent for every (k, CoT).
// ---------------------------------------------------------------------------
class WordProblemConfigs
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(WordProblemConfigs, EncodingConsistent) {
  auto [terms, cot] = GetParam();
  data::WordProblemOptions opts;
  opts.modulus = 7;
  opts.terms = terms;
  opts.chain_of_thought = cot;
  data::WordProblemDataset ds(opts);
  util::Rng rng(static_cast<uint64_t>(terms * 2 + cot));
  for (int i = 0; i < 10; ++i) {
    auto p = ds.SampleProblem(&rng);
    auto seq = ds.Encode(p);
    ASSERT_EQ(static_cast<int64_t>(seq.size()), ds.seq_len());
    ASSERT_EQ(seq.back(), ds.end_token());
    // The last number in the sequence is the answer.
    int64_t last_number = -1;
    for (int64_t t : seq) {
      if (t < opts.modulus) last_number = t;
    }
    ASSERT_EQ(last_number, p.answer);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WordProblemConfigs,
    ::testing::Combine(::testing::Values(2, 3, 5, 8),
                       ::testing::Bool()));

}  // namespace
}  // namespace llm
