// The serving model's shape, in one place: bench_serving, bench_tenants,
// bench_weight_init, serve_test's reserved-buffer test and
// core_tensor_test's ServingModelWeightsKeepTheirBytes build it.
// bench/e2e/bench_e2e.cc keeps a copy of its own, because the end-to-end
// benchmark's sources change only with that benchmark; the two must stay
// equal, and the test pins the weights this one builds.
#ifndef TFMR_SERVE_SERVING_MODEL_H_
#define TFMR_SERVE_SERVING_MODEL_H_

#include "nn/transformer.h"

namespace llm::serve {

/// GPT-2-small-proportioned toy: a BPE-scale vocabulary on a narrow trunk,
/// so the wide tied unembedding dominates per-token cost as it does in
/// real models.
inline nn::GPTConfig ServingConfig() {
  nn::GPTConfig cfg;
  cfg.vocab_size = 32768;
  cfg.max_seq_len = 48;
  cfg.d_model = 256;
  cfg.n_layer = 2;
  cfg.n_head = 8;
  cfg.tie_embeddings = true;
  return cfg;
}

}  // namespace llm::serve

#endif  // TFMR_SERVE_SERVING_MODEL_H_
