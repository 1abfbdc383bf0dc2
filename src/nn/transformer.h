// GPT-style decoder-only transformer language model (paper §6).
//
// The model is the composition the paper describes: token embedding (Eq. 7)
// plus positional encoding (Eq. 15 or learned), alternating attention
// (Eq. 13-14) and FFN (Eq. 11) layers with residual connections and layer
// norm, and a linear map back to vocabulary logits whose softmax (Eq. 8)
// gives the next-word distribution.
#ifndef TFMR_NN_TRANSFORMER_H_
#define TFMR_NN_TRANSFORMER_H_

#include <memory>
#include <vector>

#include "nn/attention.h"
#include "nn/layers.h"
#include "nn/positional.h"
#include "util/status.h"

namespace llm::nn {

struct GPTConfig {
  int64_t vocab_size = 0;
  int64_t max_seq_len = 0;
  int64_t d_model = 64;
  int n_layer = 2;
  int n_head = 2;
  /// FFN hidden width; 0 means 4 * d_model (the paper's p_h = 4p).
  int64_t d_hidden = 0;
  float dropout = 0.0f;
  /// Pre-LN (residual stream normalized before each sublayer) vs post-LN
  /// (the original Vaswani arrangement). Pre-LN trains more stably at depth.
  bool pre_layernorm = true;
  /// Learned position embeddings vs the fixed sinusoidal Eq. 15.
  bool learned_positional = true;
  /// Drop the FFN sublayers entirely (attention-only transformer, used by
  /// the induction-heads experiment of §7).
  bool attention_only = false;
  /// Tie the unembedding to the token embedding (logits = h E^T).
  bool tie_embeddings = false;
  /// 0 = full causal attention; w > 0 = windowed "sparse" attention (§6).
  int attention_window = 0;
  Activation activation = Activation::kGelu;

  int64_t hidden_dim() const { return d_hidden > 0 ? d_hidden : 4 * d_model; }

  /// Validates dimensions; returns InvalidArgument on a bad config.
  util::Status Validate() const;
};

/// One attention (+FFN) layer with residual connections.
class TransformerBlock : public Module {
 public:
  TransformerBlock(const GPTConfig& config, core::NormalSource init);

  /// x: [B, T, C] -> [B, T, C].
  core::Variable Forward(const core::Variable& x, bool training,
                         util::Rng* rng) const;

  NamedParams NamedParameters() const override;

  CausalSelfAttention* attention() { return &attn_; }
  const CausalSelfAttention* attention() const { return &attn_; }
  const LayerNorm& ln1() const { return ln1_; }
  const LayerNorm& ln2() const { return ln2_; }
  /// Null when the block is attention-only.
  const Mlp* mlp() const { return mlp_.get(); }
  bool pre_layernorm() const { return pre_ln_; }

 private:
  bool pre_ln_;
  bool attention_only_;
  float dropout_;
  LayerNorm ln1_;
  LayerNorm ln2_;
  CausalSelfAttention attn_;
  std::unique_ptr<Mlp> mlp_;  // null when attention_only
};

/// Optional per-forward capture of internal activations (§7 probing).
struct ActivationCapture {
  /// Residual stream after embedding (index 0) and after each block
  /// (indices 1..n_layer); each entry is [B, T, C].
  std::vector<core::Variable> residual;
  /// Attention probabilities per layer, [B, H, T, T]. Only filled if
  /// capture_attention is set.
  std::vector<core::Tensor> attention;
  bool capture_attention = false;
};

struct ForwardOptions {
  bool training = false;
  util::Rng* rng = nullptr;  // required if training with dropout > 0
  ActivationCapture* capture = nullptr;
};

class GPTModel : public Module {
 public:
  /// Draws every weight from `rng` in construction order, in one
  /// Rng::FillNormal over the whole model.
  GPTModel(const GPTConfig& config, util::Rng* rng);

  /// tokens: row-major [B, T] flattened; returns logits [B*T, vocab].
  core::Variable ForwardLogits(const std::vector<int64_t>& tokens, int64_t B,
                               int64_t T,
                               const ForwardOptions& opts = {}) const;

  /// Resumes the forward pass from a (possibly edited) residual-stream
  /// activation: applies blocks[start_layer:], the final layer norm, and
  /// the unembedding. h: [B, T, C]. Used with ActivationCapture for the
  /// §7 intervention experiments (edit an internal representation, observe
  /// the change in predictions).
  core::Variable ForwardFromLayer(const core::Variable& h,
                                  int start_layer) const;

  /// Convenience: cross-entropy (Eq. 3) of `targets` ([B, T] flattened,
  /// ignore_index for padding) under the model.
  core::Variable LmLoss(const std::vector<int64_t>& tokens,
                        const std::vector<int64_t>& targets, int64_t B,
                        int64_t T, const ForwardOptions& opts = {},
                        int64_t ignore_index = -1) const;

  NamedParams NamedParameters() const override;

  const GPTConfig& config() const { return config_; }
  TransformerBlock* block(int i) { return blocks_[static_cast<size_t>(i)].get(); }
  const TransformerBlock* block(int i) const {
    return blocks_[static_cast<size_t>(i)].get();
  }
  const Embedding& token_embedding() const { return tok_emb_; }
  const core::Variable& position_embedding() const { return pos_emb_; }
  const LayerNorm& final_layernorm() const { return ln_final_; }
  /// Null when embeddings are tied.
  const Linear* head() const { return head_.get(); }

 private:
  // The modules queue their weights' fills in `fills`, which the public
  // constructor's temporary keeps alive until this one has run them.
  GPTModel(const GPTConfig& config, util::Rng* rng,
           std::vector<util::NormalFill>&& fills);

  // Both forwards' tail: [B*T, vocab] logits from the [B, T, C] residual
  // stream by the final LayerNorm and the head (MatMulBt when tied).
  core::Variable Unembed(const core::Variable& h) const;

  GPTConfig config_;
  Embedding tok_emb_;
  core::Variable pos_emb_;  // [max_seq_len, d_model]; fixed if sinusoidal
  std::vector<std::unique_ptr<TransformerBlock>> blocks_;
  LayerNorm ln_final_;
  std::unique_ptr<Linear> head_;  // null when tie_embeddings
};

}  // namespace llm::nn

#endif  // TFMR_NN_TRANSFORMER_H_
