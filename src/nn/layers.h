// Basic layers: Linear, Embedding, LayerNorm, and the two-layer FFN of
// Eq. 11 (the transformer's per-position MLP).
#ifndef TFMR_NN_LAYERS_H_
#define TFMR_NN_LAYERS_H_

#include <string>

#include "nn/module.h"
#include "util/rng.h"

namespace llm::nn {

/// Affine map y = x W + b with x: [N, in], W: [in, out], b: [out].
/// Weights are initialized N(0, 1/in) per the paper's §6 ("var(W) ~ 1/p"),
/// from `init` (a util::Rng*, or a deferred source; see core::NormalSource).
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, core::NormalSource init,
         bool bias = true);

  core::Variable Forward(const core::Variable& x) const;

  NamedParams NamedParameters() const override;

  const core::Variable& weight() const { return weight_; }
  const core::Variable& bias() const { return bias_; }
  bool has_bias() const { return has_bias_; }
  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  bool has_bias_;
  core::Variable weight_;
  core::Variable bias_;
};

/// Token embedding table (the map iota of Eq. 7, learned).
class Embedding : public Module {
 public:
  Embedding(int64_t vocab_size, int64_t dim, core::NormalSource init);

  /// ids -> [ids.size(), dim].
  core::Variable Forward(const std::vector<int64_t>& ids) const;

  NamedParams NamedParameters() const override;

  const core::Variable& weight() const { return weight_; }
  int64_t vocab_size() const { return vocab_size_; }
  int64_t dim() const { return dim_; }

 private:
  int64_t vocab_size_;
  int64_t dim_;
  core::Variable weight_;
};

/// Layer normalization with learned affine (gamma=1, beta=0 at init).
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int64_t dim, float eps = 1e-5f);

  core::Variable Forward(const core::Variable& x) const;

  NamedParams NamedParameters() const override;

  const core::Variable& gamma() const { return gamma_; }
  const core::Variable& beta() const { return beta_; }
  float eps() const { return eps_; }

 private:
  core::Variable gamma_;
  core::Variable beta_;
  float eps_;
};

enum class Activation { kRelu, kGelu, kTanh };

core::Variable ApplyActivation(const core::Variable& x, Activation act);

/// The core/kernels.h row kernel that ApplyActivation's op runs forward.
using ActivationRowFn = void (*)(const float* x, float* y, int64_t n);
ActivationRowFn ActivationRow(Activation act);

/// Two-layer FFN (Eq. 11 with one hidden layer): Linear -> act -> Linear.
class Mlp : public Module {
 public:
  Mlp(int64_t in_dim, int64_t hidden_dim, int64_t out_dim,
      core::NormalSource init, Activation act = Activation::kGelu);

  core::Variable Forward(const core::Variable& x) const;

  NamedParams NamedParameters() const override;

  const Linear& fc_in() const { return fc_in_; }
  const Linear& fc_out() const { return fc_out_; }
  Activation activation() const { return act_; }

 private:
  Linear fc_in_;
  Linear fc_out_;
  Activation act_;
};

}  // namespace llm::nn

#endif  // TFMR_NN_LAYERS_H_
