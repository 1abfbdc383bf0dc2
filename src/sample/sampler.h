// Decoding strategies (paper Eq. 8: the Boltzmann/softmax inverse map with
// temperature T): greedy (the beta -> infinity argmax limit), temperature
// sampling, top-k, and nucleus (top-p) truncation, plus autoregressive
// generation from a GPTModel.
#ifndef TFMR_SAMPLE_SAMPLER_H_
#define TFMR_SAMPLE_SAMPLER_H_

#include <vector>

#include "nn/gpt_inference.h"
#include "nn/transformer.h"
#include "util/rng.h"

namespace llm::sample {

struct SamplerOptions {
  /// Temperature T of Eq. 8; 0 (or less) means greedy argmax.
  float temperature = 1.0f;
  /// Keep only the k most likely tokens before sampling; a k <= 0 or
  /// >= vocab disables.
  int top_k = 0;
  /// Keep the smallest prefix of tokens with cumulative probability
  /// >= top_p; a NaN, <= 0 or >= 1 disables.
  float top_p = 0.0f;
};

// Truncation walks the sampling order: probability descending, then id
// ascending, so of tokens whose probabilities tie exactly at the cut the
// lower ids are kept. The kept mass is the double sum of the kept
// probabilities in that order, and the draw runs Rng::Categorical over the
// renormalized float distribution in id order.
//
// The work runs in two buffers of the calling thread, each grown to the
// largest size the thread has needed and freed when it exits:
// SampleFromLogits at temperature > 0 writes the distribution into one
// (4 bytes a token of the vocabulary), and truncation orders the ids it
// must in the other (at most 4 bytes a token): at most 256 KiB a thread
// at a vocabulary of 32768. No call allocates in proportion to the
// vocabulary, except for the vector DistributionFromLogits returns.
// Greedy uses neither buffer.
//
// At temperature > 0, a row holding a NaN or +inf, or only -inf, fails a
// check (LLM_CHECK aborts); a -inf logit among finite ones gets
// probability 0. Greedy only compares logits with `>`.

/// Probability distribution from one logits row under the options
/// (softmax at temperature, then top-k / top-p truncation, renormalized).
/// With temperature <= 0 the result is a one-hot argmax distribution.
std::vector<float> DistributionFromLogits(const float* logits, int64_t vocab,
                                          const SamplerOptions& options);

/// Samples one token id from a logits row: greedy returns the first index
/// of the maximum and leaves `rng` untouched (it may be null); otherwise
/// one Categorical draw over DistributionFromLogits's distribution.
int64_t SampleFromLogits(const float* logits, int64_t vocab,
                         const SamplerOptions& options, util::Rng* rng);

struct GenerateOptions {
  int64_t max_new_tokens = 32;
  SamplerOptions sampler;
  /// Stop early when this token is produced; -1 disables.
  int64_t stop_token = -1;
};

/// Autoregressive generation: repeatedly runs the model on the (windowed)
/// prefix and samples the next token. Returns only the newly generated
/// tokens. The prefix must be non-empty.
std::vector<int64_t> Generate(const nn::GPTModel& model,
                              const std::vector<int64_t>& prefix,
                              const GenerateOptions& options, util::Rng* rng);

/// KV-cached generation with the full SamplerOptions (temperature, top-k,
/// top-p) — the O(L)-per-token path the serving runtime mirrors. Agrees
/// with Generate under every decoding strategy (parity-tested) as long as
/// prefix size + max_new_tokens fits the model window; unlike Generate the
/// cached path does not slide the window, it stops at max_seq_len.
std::vector<int64_t> GenerateCached(const nn::GPTModel& model,
                                    const std::vector<int64_t>& prefix,
                                    const GenerateOptions& options,
                                    util::Rng* rng);

/// Same as GenerateCached but reuses a caller-owned session (which it
/// Reset()s first) so repeated requests share one KV allocation — the
/// single-stream analogue of the serve::KvCachePool slot lease.
std::vector<int64_t> GenerateWithSession(nn::GptInferenceSession* session,
                                         const std::vector<int64_t>& prefix,
                                         const GenerateOptions& options,
                                         util::Rng* rng);

}  // namespace llm::sample

#endif  // TFMR_SAMPLE_SAMPLER_H_
