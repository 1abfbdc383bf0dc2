// Experiment X15 — inference cost and the KV cache (paper §6: attention
// costs O(L^2) per forward pass, so naive generation is O(L^3) while a
// key/value cache makes it O(L^2) total). Wall-clock comparison of
// full-recompute generation vs the cached incremental session, plus an
// equivalence check (greedy outputs must match token for token).
#include <chrono>
#include <cstdio>
#include <iostream>

#include "nn/gpt_inference.h"
#include "sample/sampler.h"
#include "util/table.h"

namespace {
using llm::util::FormatFloat;
using llm::util::Table;

double Seconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}
}  // namespace

int main() {
  llm::util::Rng rng(3);
  llm::nn::GPTConfig cfg;
  cfg.vocab_size = 64;
  cfg.max_seq_len = 256;
  cfg.d_model = 64;
  cfg.n_layer = 2;
  cfg.n_head = 4;
  llm::nn::GPTModel model(cfg, &rng);
  std::printf("model: %lld params, window %lld\n\n",
              static_cast<long long>(model.NumParameters()),
              static_cast<long long>(cfg.max_seq_len));

  // Equivalence: greedy cached == greedy uncached.
  {
    llm::sample::GenerateOptions gopts;
    gopts.max_new_tokens = 48;
    gopts.sampler.temperature = 0.0f;
    llm::util::Rng r1(1), r2(1);
    auto slow = llm::sample::Generate(model, {1, 2, 3}, gopts, &r1);
    auto fast = llm::sample::GenerateCached(model, {1, 2, 3}, gopts, &r2);
    std::printf("greedy equivalence over 48 tokens: %s\n\n",
                slow == fast ? "IDENTICAL" : "MISMATCH (bug!)");
    if (slow != fast) return 1;
  }

  std::cout << "== Generation wall-clock: full recompute vs KV cache ==\n\n";
  Table t({"new tokens", "recompute (s)", "cached (s)", "speedup"});
  for (int64_t n : {16, 32, 64, 128, 240}) {
    llm::util::Rng r1(7), r2(7);
    llm::sample::GenerateOptions gopts;
    gopts.max_new_tokens = n;
    gopts.sampler.temperature = 1.0f;
    const double slow =
        Seconds([&] { llm::sample::Generate(model, {1}, gopts, &r1); });
    const double fast = Seconds(
        [&] { llm::sample::GenerateCached(model, {1}, gopts, &r2); });
    t.AddRow({std::to_string(n), FormatFloat(slow, 3),
              FormatFloat(fast, 3), FormatFloat(slow / fast, 1) + "x"});
  }
  t.Print(std::cout);
  std::cout << "\nExpected shape (paper §6): recompute cost grows ~cubically\n"
               "with generated length (each step re-runs O(L^2) attention\n"
               "plus rebuilds the whole graph); the cached path pays O(L)\n"
               "attention per token, so the speedup widens with length.\n";

  // Session reuse: a fresh GptInferenceSession per request re-allocates
  // the KV slab every time; Reset() keeps the capacity, so a reused
  // session leaves the allocator alone in steady state (the same property
  // serve::KvCachePool gives the batched server).
  std::cout << "\n== Session reuse: fresh session vs Reset() ==\n\n";
  // Short requests make the per-request setup cost visible: each fresh
  // session allocates and zero-fills the full-window KV slab before the
  // first token.
  constexpr int kRequests = 512;
  llm::sample::GenerateOptions gopts;
  gopts.max_new_tokens = 1;
  std::vector<int64_t> fresh_out, reused_out;
  const double fresh_secs = Seconds([&] {
    for (int i = 0; i < kRequests; ++i) {
      llm::util::Rng r(11);
      fresh_out = llm::sample::GenerateCached(model, {1, 2, 3}, gopts, &r);
    }
  });
  llm::nn::GptInferenceSession session(&model);
  const double reused_secs = Seconds([&] {
    for (int i = 0; i < kRequests; ++i) {
      llm::util::Rng r(11);
      reused_out =
          llm::sample::GenerateWithSession(&session, {1, 2, 3}, gopts, &r);
    }
  });
  std::printf("%d short requests  fresh sessions: %.3fs   reused session: "
              "%.3fs   (%.2fx, outputs %s)\n",
              kRequests, fresh_secs, reused_secs, fresh_secs / reused_secs,
              fresh_out == reused_out ? "identical" : "MISMATCH (bug!)");
  if (fresh_out != reused_out) return 1;

  // Machine-readable summary: cached-vs-uncached throughput at the longest
  // generation length plus the session-reuse ratio.
  {
    const int64_t n = 240;
    llm::util::Rng r1(7), r2(7);
    const double slow = Seconds([&] {
      llm::sample::GenerateOptions opts;
      opts.max_new_tokens = n;
      llm::sample::Generate(model, {1}, opts, &r1);
    });
    const double fast = Seconds([&] {
      llm::sample::GenerateOptions opts;
      opts.max_new_tokens = n;
      llm::sample::GenerateCached(model, {1}, opts, &r2);
    });
    std::printf(
        "{\"bench\":\"inference_cache\",\"new_tokens\":%lld,"
        "\"tokens_per_sec\":%.1f,\"speedup_vs_uncached\":%.2f,"
        "\"session_reuse_speedup\":%.2f}\n",
        static_cast<long long>(n), static_cast<double>(n) / fast, slow / fast,
        fresh_secs / reused_secs);
  }
  return 0;
}
