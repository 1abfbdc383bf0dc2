// Tests for the decoding strategies (Eq. 8) and autoregressive generation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <latch>
#include <limits>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

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

TEST(DistributionTest, DisabledTruncationIsNoop) {
  // A top_k <= 0 or >= vocab, and a top_p that is NaN, <= 0 or >= 1,
  // truncate nothing: the distribution and the draws are the softmax's.
  const float logits[] = {1.0f, 0.5f, -0.5f, 0.0f};
  SamplerOptions plain;
  std::vector<SamplerOptions> disabled;
  for (int k : {-1, 0, 4, 100}) disabled.push_back({1.0f, k, 0.0f});
  for (float p : {std::nanf(""), 0.0f, -0.5f, 1.0f, 1.5f}) {
    disabled.push_back({1.0f, 0, p});
  }
  const std::vector<float> p0 = DistributionFromLogits(logits, 4, plain);
  for (const SamplerOptions& opts : disabled) {
    SCOPED_TRACE(::testing::Message() << "top_k " << opts.top_k << " top_p "
                                      << opts.top_p);
    const std::vector<float> p = DistributionFromLogits(logits, 4, opts);
    EXPECT_EQ(std::memcmp(p.data(), p0.data(), sizeof(logits)), 0);
    util::Rng r0(11), r1(11);
    for (int i = 0; i < 50; ++i) {
      ASSERT_EQ(SampleFromLogits(logits, 4, opts, &r1),
                SampleFromLogits(logits, 4, plain, &r0));
    }
    EXPECT_EQ(r1.NextU64(), r0.NextU64());
  }
}

TEST(DistributionTest, TopKAndTopPKeepTheSmallerSet) {
  // Probabilities ~ (0.64, 0.24, 0.09, 0.03): top_p = 0.7 keeps two.
  const float logits[] = {2.0f, 1.0f, 0.0f, -1.0f};
  for (const auto& [k, kept] : {std::pair{3, 2}, std::pair{1, 1}}) {
    SamplerOptions opts;
    opts.top_k = k;
    opts.top_p = 0.7f;
    const std::vector<float> p = DistributionFromLogits(logits, 4, opts);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(p[static_cast<size_t>(i)] > 0.0f, i < kept)
          << "top_k " << k << " id " << i;
    }
  }
}

TEST(DistributionTest, EqualLogitsKeepTheLowestIds) {
  // Every id ties, so the sampling order is id order: top-k keeps ids
  // 0..k-1, and top-p the shortest id prefix reaching p. 100 and 1000 ids
  // take the radix sort, 5 its insertion sort.
  for (int64_t vocab : {5, 100, 1000}) {
    const std::vector<float> logits(static_cast<size_t>(vocab), 0.3f);
    SamplerOptions top_k, top_p;
    top_k.top_k = 3;
    top_p.top_p = 0.5f;
    const std::vector<float> pk =
        DistributionFromLogits(logits.data(), vocab, top_k);
    const std::vector<float> pp =
        DistributionFromLogits(logits.data(), vocab, top_p);
    // Each probability is the float nearest 1 / vocab.
    const double each = static_cast<float>(1.0 / static_cast<double>(vocab));
    int64_t kept = 0;
    for (double mass = 0.0; mass < 0.5; mass += each) ++kept;
    for (int64_t i = 0; i < vocab; ++i) {
      const size_t at = static_cast<size_t>(i);
      EXPECT_EQ(pk[at], i < 3 ? pk[0] : 0.0f) << "vocab " << vocab;
      EXPECT_EQ(pp[at], i < kept ? pp[0] : 0.0f)
          << "vocab " << vocab << " id " << i;
    }
    EXPECT_NEAR(pk[0], 1.0f / 3.0f, 1e-6f);
  }
}

TEST(DistributionTest, VocabularyOfOne) {
  const float logits[] = {-2.5f};
  for (const SamplerOptions& opts :
       {SamplerOptions{0.0f, 0, 0.0f}, SamplerOptions{0.7f, 0, 0.0f},
        SamplerOptions{0.7f, 1, 0.0f}, SamplerOptions{0.7f, 0, 0.5f},
        SamplerOptions{0.7f, 5, 0.5f}}) {
    EXPECT_EQ(DistributionFromLogits(logits, 1, opts),
              std::vector<float>{1.0f});
    util::Rng rng(3);
    EXPECT_EQ(SampleFromLogits(logits, 1, opts, &rng), 0);
  }
}

TEST(DistributionTest, NonFiniteRowsAbortUnlessGreedy) {
  // 40 ids take the radix sort under truncation.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  std::vector<float> nan_row(40, 0.5f), inf_row(40, 0.5f);
  std::vector<float> minus_inf_row(40, -kInf);
  nan_row[5] = std::nanf("");
  inf_row[9] = kInf;
  for (const SamplerOptions& opts :
       {SamplerOptions{0.8f, 0, 0.0f}, SamplerOptions{0.8f, 3, 0.0f},
        SamplerOptions{0.8f, 0, 0.9f}}) {
    for (const std::vector<float>* row :
         {&nan_row, &inf_row, &minus_inf_row}) {
      util::Rng rng(1);
      EXPECT_DEATH(SampleFromLogits(row->data(), 40, opts, &rng), "CHECK");
    }
  }
  // A -inf among finite logits is a token of probability 0.
  std::vector<float> masked(40, 0.5f);
  masked[0] = -kInf;
  util::Rng rng(1);
  EXPECT_NE(SampleFromLogits(masked.data(), 40, {0.8f, 0, 0.9f}, &rng), 0);
  EXPECT_EQ(SampleFromLogits(inf_row.data(), 40, {0.0f, 0, 0.0f}, nullptr),
            9);
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

// --- The sampler before its radix rewrite, kept as the reference the
// rewrite is checked against: a softmax at temperature, then a sort of
// every id by probability and the cut over that order. It sorted with
// std::sort, which leaves the order of equal probabilities unspecified;
// with `stable` set it uses std::stable_sort, which puts equal
// probabilities in id order: the order the sampler documents. If
// `tie_at_cut` is given, it is set when equal probabilities straddle the
// cut, so that which of them are kept depends on how the sort orders ties.
std::vector<float> ReferenceDistribution(const float* logits, int64_t vocab,
                                         const SamplerOptions& options,
                                         bool stable,
                                         bool* tie_at_cut = nullptr) {
  if (tie_at_cut != nullptr) *tie_at_cut = false;
  std::vector<float> probs(static_cast<size_t>(vocab), 0.0f);
  if (options.temperature <= 0.0f) {
    int64_t best = 0;
    for (int64_t i = 1; i < vocab; ++i) {
      if (logits[i] > logits[best]) best = i;
    }
    probs[static_cast<size_t>(best)] = 1.0f;
    return probs;
  }
  const float inv_t = 1.0f / options.temperature;
  float maxv = logits[0];
  for (int64_t i = 1; i < vocab; ++i) maxv = std::max(maxv, logits[i]);
  double sum = 0.0;
  for (int64_t i = 0; i < vocab; ++i) {
    probs[static_cast<size_t>(i)] = std::exp((logits[i] - maxv) * inv_t);
    sum += probs[static_cast<size_t>(i)];
  }
  for (auto& p : probs) p = static_cast<float>(p / sum);

  const bool use_top_k = options.top_k > 0 && options.top_k < vocab;
  const bool use_top_p = options.top_p > 0.0f && options.top_p < 1.0f;
  if (!use_top_k && !use_top_p) return probs;

  std::vector<int64_t> order(static_cast<size_t>(vocab));
  std::iota(order.begin(), order.end(), 0);
  const auto higher = [&](int64_t a, int64_t b) {
    return probs[static_cast<size_t>(a)] > probs[static_cast<size_t>(b)];
  };
  if (stable) {
    std::stable_sort(order.begin(), order.end(), higher);
  } else {
    std::sort(order.begin(), order.end(), higher);
  }

  int64_t keep = vocab;
  if (use_top_k) keep = std::min<int64_t>(keep, options.top_k);
  if (use_top_p) {
    double cum = 0.0;
    int64_t k = 0;
    while (k < keep) {
      cum += probs[static_cast<size_t>(order[static_cast<size_t>(k)])];
      ++k;
      if (cum >= options.top_p) break;
    }
    keep = k;
  }
  if (tie_at_cut != nullptr && keep < vocab) {
    *tie_at_cut = probs[static_cast<size_t>(order[keep - 1])] ==
                  probs[static_cast<size_t>(order[keep])];
  }
  std::vector<float> truncated(static_cast<size_t>(vocab), 0.0f);
  double kept_mass = 0.0;
  for (int64_t k = 0; k < keep; ++k) {
    const int64_t id = order[static_cast<size_t>(k)];
    truncated[static_cast<size_t>(id)] = probs[static_cast<size_t>(id)];
    kept_mass += probs[static_cast<size_t>(id)];
  }
  for (auto& p : truncated) p = static_cast<float>(p / kept_mass);
  return truncated;
}

int64_t ReferenceSample(const std::vector<float>& probs, bool greedy,
                        util::Rng* rng) {
  if (greedy) {
    for (size_t i = 0; i < probs.size(); ++i) {
      if (probs[i] == 1.0f) return static_cast<int64_t>(i);
    }
  }
  return static_cast<int64_t>(rng->Categorical(probs));
}

bool SameState(const util::Rng& a, const util::Rng& b) {
  const util::RngState x = a.SaveState(), y = b.SaveState();
  return std::equal(x.s, x.s + 4, y.s) &&
         x.have_cached_normal == y.have_cached_normal &&
         std::memcmp(&x.cached_normal, &y.cached_normal, sizeof(double)) == 0;
}

// Logit rows of several shapes: spread (near-flat like an untrained
// model's, unit, and peaked enough that most probabilities underflow or
// fall below 2^-29), heavy ties, all equal, masked (-inf) entries, and one
// id near probability 1 over a tail below 2^-29 that, at T 1, carries the
// running mass across 1.0, where a double sum's bits depend on its order.
std::vector<float> LogitRow(int64_t vocab, uint64_t row, util::Rng* rng) {
  std::vector<float> logits(static_cast<size_t>(vocab));
  const double spread[] = {0.05, 1.0, 12.0};
  switch (row % 7) {
    case 0:
    case 1:
    case 2:
      for (float& l : logits) {
        l = static_cast<float>(rng->Normal(0.0, spread[row % 3]));
      }
      break;
    case 3:  // four distinct values
      for (float& l : logits) l = static_cast<float>(rng->UniformInt(4));
      break;
    case 4:  // half-unit steps, a tenth of the ids masked
      for (float& l : logits) {
        l = rng->Bernoulli(0.1)
                ? -std::numeric_limits<float>::infinity()
                : static_cast<float>(
                      std::round(2.0 * rng->Normal(0.0, 1.5)) / 2.0);
      }
      logits[rng->UniformInt(static_cast<uint64_t>(vocab))] = 1.0f;
      break;
    case 5: {  // the tail's weights sum to about 8e-8 of the top one's
      const double tail = std::log(8e-8 / static_cast<double>(vocab));
      for (float& l : logits) {
        l = static_cast<float>(tail + rng->Uniform(-0.5, 0.5));
      }
      logits[rng->UniformInt(static_cast<uint64_t>(vocab))] = 0.0f;
      break;
    }
    default:
      std::fill(logits.begin(), logits.end(), 0.25f);
      break;
  }
  return logits;
}

// Every draw of the rewrite against the reference, over kRows seeded rows a
// mode, kLargeRows of them at the serving vocabulary of 32768 and the rest
// at small ones (including 1, and sizes on both sides of the radix sort's
// insertion-sort cutoff). Where no tie straddles the cut, the
// distribution, the token and the RngState after the draw equal the old
// sampler's; every row follows the documented tie order.
TEST(SampleTest, MatchesTheSortingReference) {
  constexpr int kRows = 10000;
  constexpr int kLargeRows = 400;
  const int64_t small_vocabs[] = {1, 2, 3, 7, 19, 32, 33, 64, 100, 257, 1000};
  const float temperatures[] = {0.25f, 0.8f, 1.0f, 1.7f};
  const int top_ks[] = {1, 2, 5, 50, 600};
  const float top_ps[] = {0.05f, 0.5f, 0.9f, 0.99f};
  struct Mode {
    const char* name;
    bool top_k, top_p;
  };
  const Mode modes[] = {{"greedy", false, false},
                        {"temperature", false, false},
                        {"top-k", true, false},
                        {"top-p", false, true},
                        {"top-k+top-p", true, true}};
  for (size_t m = 0; m < std::size(modes); ++m) {
    const Mode& mode = modes[m];
    util::Rng rows(1000 + m);
    int ties = 0, changed = 0;
    for (int r = 0; r < kRows; ++r) {
      const int64_t vocab =
          r < kLargeRows ? 32768
                         : small_vocabs[static_cast<size_t>(r) %
                                        std::size(small_vocabs)];
      const std::vector<float> logits =
          LogitRow(vocab, static_cast<uint64_t>(r), &rows);
      SamplerOptions opts;
      opts.temperature = m == 0 ? 0.0f : temperatures[rows.UniformInt(4)];
      if (mode.top_k) opts.top_k = top_ks[rows.UniformInt(5)];
      if (mode.top_p) opts.top_p = top_ps[rows.UniformInt(4)];
      SCOPED_TRACE(::testing::Message()
                   << mode.name << " row " << r << " vocab " << vocab << " T "
                   << opts.temperature << " k " << opts.top_k << " p "
                   << opts.top_p);
      bool tie = false;
      const std::vector<float> sorted =
          ReferenceDistribution(logits.data(), vocab, opts, false, &tie);
      ties += tie;
      // Without a tie at the cut every order of ties keeps the same ids.
      const std::vector<float> want =
          tie ? ReferenceDistribution(logits.data(), vocab, opts, true)
              : sorted;
      const std::vector<float> got =
          DistributionFromLogits(logits.data(), vocab, opts);
      ASSERT_EQ(std::memcmp(got.data(), want.data(),
                            got.size() * sizeof(float)),
                0);

      const uint64_t seed = rows.NextU64();
      util::Rng ours(seed), documented(seed), before(seed);
      const bool greedy = opts.temperature <= 0.0f;
      for (int draw = 0; draw < 2; ++draw) {
        const int64_t token =
            SampleFromLogits(logits.data(), vocab, opts, &ours);
        ASSERT_EQ(token, ReferenceSample(want, greedy, &documented));
        ASSERT_TRUE(SameState(ours, documented));
        const int64_t old = ReferenceSample(sorted, greedy, &before);
        changed += token != old;
        if (!tie) {
          ASSERT_EQ(token, old);
          ASSERT_TRUE(SameState(ours, before));
        }
      }
    }
    // std::sort's order of ties is unspecified, so these counts are
    // reported, not checked.
    std::printf("[sampler-reference] %s: %d rows, %d with a tie at the cut, "
                "%d draws differ from std::sort's\n",
                mode.name, kRows, ties, changed);
  }
}

// The sampling buffers are per thread: four threads drawing at once, over
// vocabularies of several sizes so that each thread's buffers grow while
// the others draw, draw what a serial run of the same seeds draws.
TEST(SampleTest, ThreadsDrawWhatASerialRunDraws) {
  const int64_t vocabs[] = {32768, 7, 1000, 32768, 2};
  util::Rng make(77);
  std::vector<std::vector<float>> rows;
  for (int64_t vocab : vocabs) {
    rows.push_back(LogitRow(vocab, rows.size(), &make));
  }
  const SamplerOptions modes[] = {{0.0f, 0, 0.0f},
                                  {0.8f, 0, 0.0f},
                                  {0.8f, 50, 0.0f},
                                  {0.8f, 0, 0.9f},
                                  {1.2f, 5, 0.95f}};
  constexpr int kThreads = 4;
  constexpr int kDraws = 60;
  const auto run = [&](int t, std::vector<int64_t>* tokens) {
    util::Rng rng(500 + t);
    for (int i = 0; i < kDraws; ++i) {
      const std::vector<float>& row = rows[(t + i) % rows.size()];
      const SamplerOptions& opts = modes[(t + 2 * i) % std::size(modes)];
      tokens->push_back(SampleFromLogits(
          row.data(), static_cast<int64_t>(row.size()), opts, &rng));
    }
    tokens->push_back(static_cast<int64_t>(rng.NextU64() >> 1));
  };
  std::vector<std::vector<int64_t>> serial(kThreads), parallel(kThreads);
  for (int t = 0; t < kThreads; ++t) run(t, &serial[t]);
  std::latch go(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      go.arrive_and_wait();
      run(t, &parallel[t]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(parallel[t], serial[t]) << "thread " << t;
  }
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
