#include "nn/attention.h"

namespace llm::nn {

CausalSelfAttention::CausalSelfAttention(int64_t d_model, int num_heads,
                                         core::NormalSource init, int window)
    : num_heads_(num_heads),
      window_(window),
      qkv_(d_model, 3 * d_model, init),
      proj_(d_model, d_model, init) {
  LLM_CHECK_GT(num_heads, 0);
  LLM_CHECK_EQ(d_model % num_heads, 0);
}

core::Variable CausalSelfAttention::Forward(const core::Variable& x) const {
  LLM_CHECK_EQ(x.value().ndim(), 3);
  core::Variable qkv = qkv_.Forward(x);  // [B, T, 3C]
  core::AttentionOptions opts;
  opts.num_heads = num_heads_;
  opts.window = window_;
  opts.save_probs = capture_ ? &last_probs_ : nullptr;
  core::Variable att = core::MultiHeadCausalAttention(qkv, opts);
  return proj_.Forward(att);
}

NamedParams CausalSelfAttention::NamedParameters() const {
  NamedParams out;
  AppendNamed("qkv", qkv_.NamedParameters(), &out);
  AppendNamed("proj", proj_.NamedParameters(), &out);
  return out;
}

}  // namespace llm::nn
