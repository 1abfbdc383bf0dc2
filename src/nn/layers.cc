#include "nn/layers.h"

#include <cmath>

#include "core/kernels.h"

namespace llm::nn {

Linear::Linear(int64_t in_features, int64_t out_features,
               core::NormalSource init, bool bias)
    : in_features_(in_features),
      out_features_(out_features),
      has_bias_(bias) {
  LLM_CHECK_GT(in_features, 0);
  LLM_CHECK_GT(out_features, 0);
  const float stddev = 1.0f / std::sqrt(static_cast<float>(in_features));
  weight_ = core::Variable(
      core::Tensor::RandomNormal({in_features, out_features}, init, 0.0f,
                                 stddev),
      /*requires_grad=*/true);
  if (has_bias_) {
    bias_ = core::Variable(core::Tensor({out_features}),
                           /*requires_grad=*/true);
  }
}

core::Variable Linear::Forward(const core::Variable& x) const {
  // Accept [..., in]: flatten to 2D, multiply, restore leading dims.
  const core::Shape& in_shape = x.shape();
  LLM_CHECK_EQ(in_shape.back(), in_features_);
  const int64_t rows = x.numel() / in_features_;
  core::Variable flat = x;
  if (x.value().ndim() != 2) {
    flat = core::Reshape(x, {rows, in_features_});
  }
  core::Variable y = core::MatMul(flat, weight_);
  if (has_bias_) y = core::AddRowBroadcast(y, bias_);
  if (in_shape.size() != 2) {
    core::Shape out_shape = in_shape;
    out_shape.back() = out_features_;
    y = core::Reshape(y, std::move(out_shape));
  }
  return y;
}

NamedParams Linear::NamedParameters() const {
  NamedParams out{{"weight", weight_}};
  if (has_bias_) out.emplace_back("bias", bias_);
  return out;
}

Embedding::Embedding(int64_t vocab_size, int64_t dim, core::NormalSource init)
    : vocab_size_(vocab_size), dim_(dim) {
  LLM_CHECK_GT(vocab_size, 0);
  LLM_CHECK_GT(dim, 0);
  weight_ = core::Variable(
      core::Tensor::RandomNormal({vocab_size, dim}, init, 0.0f, 0.02f),
      /*requires_grad=*/true);
}

core::Variable Embedding::Forward(const std::vector<int64_t>& ids) const {
  return core::EmbeddingLookup(weight_, ids);
}

NamedParams Embedding::NamedParameters() const {
  return {{"weight", weight_}};
}

LayerNorm::LayerNorm(int64_t dim, float eps) : eps_(eps) {
  gamma_ = core::Variable(core::Tensor::Ones({dim}), /*requires_grad=*/true);
  beta_ = core::Variable(core::Tensor({dim}), /*requires_grad=*/true);
}

core::Variable LayerNorm::Forward(const core::Variable& x) const {
  return core::LayerNorm(x, gamma_, beta_, eps_);
}

NamedParams LayerNorm::NamedParameters() const {
  return {{"gamma", gamma_}, {"beta", beta_}};
}

core::Variable ApplyActivation(const core::Variable& x, Activation act) {
  switch (act) {
    case Activation::kRelu:
      return core::Relu(x);
    case Activation::kGelu:
      return core::Gelu(x);
    case Activation::kTanh:
      return core::TanhOp(x);
  }
  LLM_CHECK(false) << "unknown activation";
  return x;
}

ActivationRowFn ActivationRow(Activation act) {
  switch (act) {
    case Activation::kRelu:
      return core::kernels::ReluRow;
    case Activation::kGelu:
      return core::kernels::GeluRow;
    case Activation::kTanh:
      return core::kernels::TanhRow;
  }
  LLM_CHECK(false) << "unknown activation";
  return nullptr;
}

Mlp::Mlp(int64_t in_dim, int64_t hidden_dim, int64_t out_dim,
         core::NormalSource init, Activation act)
    : fc_in_(in_dim, hidden_dim, init),
      fc_out_(hidden_dim, out_dim, init),
      act_(act) {}

core::Variable Mlp::Forward(const core::Variable& x) const {
  return fc_out_.Forward(ApplyActivation(fc_in_.Forward(x), act_));
}

NamedParams Mlp::NamedParameters() const {
  NamedParams out;
  AppendNamed("fc_in", fc_in_.NamedParameters(), &out);
  AppendNamed("fc_out", fc_out_.NamedParameters(), &out);
  return out;
}

}  // namespace llm::nn
