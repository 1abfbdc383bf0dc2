// Gradient-free incremental decoding with a key/value cache.
//
// The paper's §6 cost analysis: attention over a window of length L costs
// O(L^2) per forward pass, so naive generation of L tokens by full
// recomputation costs O(L^3). Caching each layer's keys and values makes
// the marginal token cost O(L) in attention — the standard production
// inference path — without touching the training code.
//
// The session is a one-lane BatchedDecodeStep (nn/batched_decode.h) over
// its own KV slab, so the serving runtime, which runs the same step over
// pooled cache slots, matches it by construction. It equals
// GPTModel::ForwardLogits bit for bit, since both run core/kernels.h's row
// kernels, the tied unembedding's included (checked on perturbed weights in
// tests/gpt_inference_test.cc).
#ifndef TFMR_NN_GPT_INFERENCE_H_
#define TFMR_NN_GPT_INFERENCE_H_

#include <vector>

#include "nn/batched_decode.h"

namespace llm::nn {

/// Stateful single-sequence decoder. Feed tokens one at a time; after
/// each Append the last-token logits are available. Not thread-safe.
///
/// All KV slabs are allocated once at construction (sized for the model
/// window); Reset() only rewinds the position, so reusing one session
/// across many requests never touches the allocator.
class GptInferenceSession {
 public:
  /// `model` must outlive the session. Dropout is ignored (inference).
  explicit GptInferenceSession(const GPTModel* model);

  /// Feeds one token; returns the next-token logits (length vocab_size).
  /// Aborts if the sequence would exceed the model's max_seq_len —
  /// callers handle windowing (see sample::GenerateCached).
  const std::vector<float>& Append(int64_t token);

  /// Rewinds to an empty sequence. Retains all cache capacity.
  void Reset();

  /// Number of tokens consumed since the last Reset.
  int64_t position() const { return position_; }

  const std::vector<float>& logits() const { return logits_; }

  const GPTModel* model() const { return model_; }

 private:
  const GPTModel* model_;
  int64_t position_ = 0;
  std::vector<float> kv_slab_;       // [n_layer][2][max_seq_len * d_model]
  std::vector<KvLayerView> views_;   // per-layer pointers into kv_slab_
  BatchedScratch scratch_;
  std::vector<float> logits_;
};

}  // namespace llm::nn

#endif  // TFMR_NN_GPT_INFERENCE_H_
