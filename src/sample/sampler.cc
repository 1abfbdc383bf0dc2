#include "sample/sampler.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace llm::sample {

std::vector<float> DistributionFromLogits(const float* logits, int64_t vocab,
                                          const SamplerOptions& options) {
  LLM_CHECK_GT(vocab, 0);
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

  // Sort token ids by probability, descending.
  std::vector<int64_t> order(static_cast<size_t>(vocab));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    return probs[static_cast<size_t>(a)] > probs[static_cast<size_t>(b)];
  });

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
  std::vector<float> truncated(static_cast<size_t>(vocab), 0.0f);
  double kept_mass = 0.0;
  for (int64_t k = 0; k < keep; ++k) {
    const int64_t id = order[static_cast<size_t>(k)];
    truncated[static_cast<size_t>(id)] = probs[static_cast<size_t>(id)];
    kept_mass += probs[static_cast<size_t>(id)];
  }
  LLM_CHECK_GT(kept_mass, 0.0);
  for (auto& p : truncated) p = static_cast<float>(p / kept_mass);
  return truncated;
}

int64_t SampleFromLogits(const float* logits, int64_t vocab,
                         const SamplerOptions& options, util::Rng* rng) {
  const std::vector<float> probs =
      DistributionFromLogits(logits, vocab, options);
  if (options.temperature <= 0.0f) {
    for (int64_t i = 0; i < vocab; ++i) {
      if (probs[static_cast<size_t>(i)] == 1.0f) return i;
    }
  }
  LLM_CHECK(rng != nullptr);
  return static_cast<int64_t>(rng->Categorical(probs));
}

std::vector<int64_t> Generate(const nn::GPTModel& model,
                              const std::vector<int64_t>& prefix,
                              const GenerateOptions& options,
                              util::Rng* rng) {
  LLM_CHECK(!prefix.empty());
  const int64_t max_len = model.config().max_seq_len;
  const int64_t vocab = model.config().vocab_size;
  std::vector<int64_t> sequence = prefix;
  std::vector<int64_t> generated;
  for (int64_t step = 0; step < options.max_new_tokens; ++step) {
    // Window: the last max_len tokens.
    const int64_t T =
        std::min<int64_t>(max_len, static_cast<int64_t>(sequence.size()));
    std::vector<int64_t> window(sequence.end() - T, sequence.end());
    core::Variable logits = model.ForwardLogits(window, 1, T);
    const float* last_row = logits.value().data() + (T - 1) * vocab;
    const int64_t next =
        SampleFromLogits(last_row, vocab, options.sampler, rng);
    sequence.push_back(next);
    generated.push_back(next);
    if (next == options.stop_token) break;
  }
  return generated;
}

std::vector<int64_t> GenerateCached(const nn::GPTModel& model,
                                    const std::vector<int64_t>& prefix,
                                    const GenerateOptions& options,
                                    util::Rng* rng) {
  nn::GptInferenceSession session(&model);
  return GenerateWithSession(&session, prefix, options, rng);
}

std::vector<int64_t> GenerateWithSession(nn::GptInferenceSession* session,
                                         const std::vector<int64_t>& prefix,
                                         const GenerateOptions& options,
                                         util::Rng* rng) {
  LLM_CHECK(session != nullptr);
  LLM_CHECK(!prefix.empty());
  session->Reset();
  const nn::GPTModel& model = *session->model();
  const int64_t max_len = model.config().max_seq_len;
  const int64_t vocab = model.config().vocab_size;
  const std::vector<float>* logits = nullptr;
  for (int64_t t : prefix) logits = &session->Append(t);
  std::vector<int64_t> out;
  if (session->position() >= max_len) return out;
  for (int64_t i = 0; i < options.max_new_tokens; ++i) {
    const int64_t next =
        SampleFromLogits(logits->data(), vocab, options.sampler, rng);
    out.push_back(next);
    // Feed `next` only when a later step samples from its logits: not
    // after a stop, the last allowed token, or the window's last slot.
    if (next == options.stop_token || i + 1 == options.max_new_tokens ||
        session->position() + 1 >= max_len) {
      break;
    }
    logits = &session->Append(next);
  }
  return out;
}

}  // namespace llm::sample
