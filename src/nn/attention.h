// Multi-head causal self-attention layer (paper §6, Eq. 13-14).
//
// The bilinear form B of Eq. 14 is factored as key/query matrices (the
// paper's footnote 32); W of Eq. 13 is the output projection. Supports the
// windowed ("sparse", §6) variant and optional capture of attention
// probabilities for interpretability (§7: induction heads).
#ifndef TFMR_NN_ATTENTION_H_
#define TFMR_NN_ATTENTION_H_

#include "nn/layers.h"

namespace llm::nn {

class CausalSelfAttention : public Module {
 public:
  /// window = 0 means full causal attention; window = w > 0 restricts each
  /// position to the previous w positions.
  CausalSelfAttention(int64_t d_model, int num_heads, core::NormalSource init,
                      int window = 0);

  /// x: [B, T, C] -> [B, T, C].
  core::Variable Forward(const core::Variable& x) const;

  NamedParams NamedParameters() const override;

  /// When enabled, each Forward stores the attention probabilities
  /// [B, H, T, T] retrievable via last_probs(). Const because capture is
  /// observational state, togglable mid-forward on a const model.
  void set_capture_probs(bool capture) const { capture_ = capture; }
  const core::Tensor& last_probs() const { return last_probs_; }

  int num_heads() const { return num_heads_; }
  int window() const { return window_; }
  const Linear& qkv() const { return qkv_; }
  const Linear& proj() const { return proj_; }

 private:
  int num_heads_;
  int window_;
  Linear qkv_;
  Linear proj_;
  mutable bool capture_ = false;
  mutable core::Tensor last_probs_;
};

}  // namespace llm::nn

#endif  // TFMR_NN_ATTENTION_H_
