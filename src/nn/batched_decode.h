// The cached-attention decode step: one call advances n sequences by one
// token each through a single pass over the model weights. It is the only
// decode kernel: the serving runtime calls it with every active sequence,
// and GptInferenceSession (nn/gpt_inference.h) with one.
//
// On a machine with few cores this — not thread fan-out — is where
// continuous batching earns its throughput:
//
//  * every weight row (QKV / proj / MLP / unembedding) is streamed from
//    memory once per *batch* instead of once per *sequence*, and
//  * the tied-unembedding dot products, which for a lone sequence are
//    serial floating-point dependency chains (strict IEEE forbids the
//    compiler from reassociating them), are interleaved across the batch
//    lane by core::kernels::GemmBt, turning a latency-bound loop into
//    independent, vectorizable accumulator lanes.
//
// Bit-exactness: the step does no forward math of its own. Its LayerNorms,
// linear layers, activations, attention and tied unembedding are the row
// kernels of core/kernels.h that GPTModel::ForwardLogits's ops run, and
// every output scalar accumulates in one order (ascending over the reduced
// index) at every batch width. So a sequence's logits do not depend on what
// shares its batch, equal those of a one-lane call such as
// GptInferenceSession::Append, and equal ForwardLogits's row for that
// position, on trained weights as on fresh ones.
#ifndef TFMR_NN_BATCHED_DECODE_H_
#define TFMR_NN_BATCHED_DECODE_H_

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

/// One sequence's contribution to a batched decode step.
struct SeqStepInput {
  /// Token to feed at `position`.
  int64_t token = 0;
  /// Rows already in this sequence's cache; row `position` will be written.
  int64_t position = 0;
  /// Per-layer KV views (n_layer entries), e.g. from serve::KvCachePool.
  KvLayerView* layers = nullptr;
  /// Out: next-token logits, length vocab_size.
  float* logits = nullptr;
};

/// Reusable temporaries; one per caller (or per worker thread). All buffers
/// reach their high-water size on the first call and are never shrunk.
struct BatchedScratch {
  std::vector<float> x;        // [B, C] residual stream rows
  std::vector<float> normed;   // [B, C]
  std::vector<float> qkv;      // [B, 3C]
  std::vector<float> att;      // [B, C]
  std::vector<float> proj;     // [B, C]
  std::vector<float> hidden;   // [B, d_hidden]
  std::vector<float> mlp;      // [B, C]
  std::vector<float*> logits;  // [B] each lane's logits: the unembed's rows
  std::vector<float> scores;   // attention probabilities, max position + 1
};

/// Advances each of the `n` sequences by one token in a single fused pass.
/// Re-entrant: concurrent calls are safe provided each call uses disjoint
/// sequences and its own scratch. Positions must be fed in order,
/// 0 <= position < max_seq_len.
void BatchedDecodeStep(const GPTModel& model, SeqStepInput* seqs, int64_t n,
                       BatchedScratch* scratch);

}  // namespace llm::nn

#endif  // TFMR_NN_BATCHED_DECODE_H_
