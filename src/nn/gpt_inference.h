// Gradient-free incremental decoding with a key/value cache.
//
// The paper's §6 cost analysis: attention over a window of length L costs
// O(L^2) per forward pass, so naive generation of L tokens by full
// recomputation costs O(L^3). Caching each layer's keys and values makes
// the marginal token cost O(L) in attention — the standard production
// inference path — without touching the training code.
//
// The session reproduces GPTModel::ForwardLogits exactly (verified in
// tests/gpt_inference_test.cc across architecture variants). The core step
// (GptDecodeStep) is factored out over caller-owned KV storage so the
// serving runtime (src/serve) can run many sequences against pooled cache
// slots — see also nn/batched_decode.h for the fused multi-sequence step.
#ifndef TFMR_NN_GPT_INFERENCE_H_
#define TFMR_NN_GPT_INFERENCE_H_

#include <vector>

#include "nn/transformer.h"

namespace llm::nn {

/// One layer's key/value cache storage for one sequence: row t of each slab
/// holds position t's vectors, [capacity_rows, d_model] flattened. The
/// decode step writes row `position` and reads rows [0, position]; callers
/// guarantee capacity_rows > position.
struct KvLayerView {
  float* keys = nullptr;
  float* values = nullptr;
};

/// Reusable temporaries for GptDecodeStep; holding one per caller (or per
/// worker thread) keeps the hot path allocation-free after the first token.
struct DecodeScratch {
  std::vector<float> x, normed, qkv, att_out, proj, h2, hidden, mlp_out,
      scores;
};

/// Feeds `token` at `position` through the model against the per-layer KV
/// views (filling each layer's row `position`), writing next-token logits
/// (length vocab_size) to `logits`. Re-entrant: concurrent calls are safe
/// provided each call uses distinct views/scratch/logits. Positions must be
/// fed in order, 0 <= position < max_seq_len.
void GptDecodeStep(const GPTModel& model, int64_t token, int64_t position,
                   KvLayerView* layers, DecodeScratch* scratch, float* logits);

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
  DecodeScratch scratch_;
  std::vector<float> logits_;
};

}  // namespace llm::nn

#endif  // TFMR_NN_GPT_INFERENCE_H_
