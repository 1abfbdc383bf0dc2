#include "nn/gpt_inference.h"

namespace llm::nn {

GptInferenceSession::GptInferenceSession(const GPTModel* model)
    : model_(model) {
  LLM_CHECK(model != nullptr);
  const int64_t rows = model->config().max_seq_len;
  const int64_t C = model->config().d_model;
  const auto n_layer = static_cast<size_t>(model->config().n_layer);
  // One contiguous slab: per layer, a keys block then a values block, each
  // [max_seq_len, C]. Sized once; Append never grows it.
  const size_t per = static_cast<size_t>(rows * C);
  kv_slab_.resize(n_layer * 2 * per);
  views_.resize(n_layer);
  for (size_t l = 0; l < n_layer; ++l) {
    views_[l].keys = kv_slab_.data() + (2 * l) * per;
    views_[l].values = kv_slab_.data() + (2 * l + 1) * per;
  }
  logits_.resize(static_cast<size_t>(model->config().vocab_size));
}

void GptInferenceSession::Reset() { position_ = 0; }

const std::vector<float>& GptInferenceSession::Append(int64_t token) {
  LLM_CHECK_LT(position_, model_->config().max_seq_len)
      << "session exceeded the model window; Reset() and re-feed";
  SeqStepInput lane{token, position_, views_.data(), logits_.data()};
  BatchedDecodeStep(*model_, &lane, 1, &scratch_);
  ++position_;
  return logits_;
}

}  // namespace llm::nn
