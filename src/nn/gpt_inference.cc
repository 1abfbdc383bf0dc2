#include "nn/gpt_inference.h"

#include <cmath>

#include "nn/decode_rows.h"

namespace llm::nn {

void GptDecodeStep(const GPTModel& model, int64_t token, int64_t position,
                   KvLayerView* layers, DecodeScratch* scratch,
                   float* logits) {
  const GPTConfig& cfg = model.config();
  LLM_CHECK_GE(position, 0);
  LLM_CHECK_LT(position, cfg.max_seq_len);
  const int64_t C = cfg.d_model;
  const int64_t H = cfg.n_head;
  const int64_t hd = C / H;
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(hd));

  // Embedding + position.
  scratch->x.resize(static_cast<size_t>(C));
  float* x = scratch->x.data();
  const core::Tensor& emb = model.token_embedding().weight().value();
  const core::Tensor& pos = model.position_embedding().value();
  LLM_CHECK_GE(token, 0);
  LLM_CHECK_LT(token, cfg.vocab_size);
  for (int64_t c = 0; c < C; ++c) {
    x[c] = emb[token * C + c] + pos[position * C + c];
  }

  scratch->normed.resize(static_cast<size_t>(C));
  scratch->qkv.resize(static_cast<size_t>(3 * C));
  scratch->att_out.resize(static_cast<size_t>(C));
  scratch->proj.resize(static_cast<size_t>(C));
  scratch->scores.resize(static_cast<size_t>(position + 1));
  for (int layer = 0; layer < cfg.n_layer; ++layer) {
    const TransformerBlock* block = model.block(layer);
    KvLayerView& kv = layers[layer];

    // ---- Attention sublayer ----
    float* normed = scratch->normed.data();
    if (block->pre_layernorm()) {
      detail::ApplyLayerNormRow(block->ln1(), x, C, normed);
    } else {
      for (int64_t c = 0; c < C; ++c) normed[c] = x[c];
    }
    float* qkv = scratch->qkv.data();
    detail::ApplyLinearRow(block->attention()->qkv(), normed, qkv);  // [3C]
    // Write this position's K/V row into the cache slabs.
    const int64_t t = position;  // cache now holds rows [0, t]
    for (int64_t c = 0; c < C; ++c) {
      kv.keys[t * C + c] = qkv[C + c];
      kv.values[t * C + c] = qkv[2 * C + c];
    }

    float* att_out = scratch->att_out.data();
    for (int64_t c = 0; c < C; ++c) att_out[c] = 0.0f;
    const int window = block->attention()->window();
    const int64_t lo =
        window > 0 ? std::max<int64_t>(0, t - window + 1) : int64_t{0};
    for (int64_t h = 0; h < H; ++h) {
      detail::AttendHeadRow(qkv + h * hd, kv.keys, kv.values, t, lo, C, h,
                            hd, inv_sqrt, scratch->scores.data(),
                            att_out + h * hd);
    }
    float* proj = scratch->proj.data();
    detail::ApplyLinearRow(block->attention()->proj(), att_out, proj);
    for (int64_t c = 0; c < C; ++c) x[c] += proj[c];
    if (!block->pre_layernorm()) {
      detail::ApplyLayerNormRow(block->ln1(), x, C, x);
    }

    // ---- FFN sublayer ----
    if (block->mlp() != nullptr) {
      scratch->h2.resize(static_cast<size_t>(C));
      float* h2 = scratch->h2.data();
      if (block->pre_layernorm()) {
        detail::ApplyLayerNormRow(block->ln2(), x, C, h2);
      } else {
        for (int64_t c = 0; c < C; ++c) h2[c] = x[c];
      }
      const Mlp* mlp = block->mlp();
      scratch->hidden.resize(
          static_cast<size_t>(mlp->fc_in().out_features()));
      scratch->mlp_out.resize(static_cast<size_t>(C));
      float* hidden = scratch->hidden.data();
      detail::ApplyLinearRow(mlp->fc_in(), h2, hidden);
      const int64_t hid = mlp->fc_in().out_features();
      for (int64_t i = 0; i < hid; ++i) {
        hidden[i] = detail::ActivationFn(mlp->activation(), hidden[i]);
      }
      float* mlp_out = scratch->mlp_out.data();
      detail::ApplyLinearRow(mlp->fc_out(), hidden, mlp_out);
      for (int64_t c = 0; c < C; ++c) x[c] += mlp_out[c];
      if (!block->pre_layernorm()) {
        detail::ApplyLayerNormRow(block->ln2(), x, C, x);
      }
    }
  }

  float* normed = scratch->normed.data();
  detail::ApplyLayerNormRow(model.final_layernorm(), x, C, normed);
  if (cfg.tie_embeddings) {
    // logits = normed . E^T (E is [V, C]).
    const core::Tensor& e = model.token_embedding().weight().value();
    for (int64_t v = 0; v < cfg.vocab_size; ++v) {
      float s = 0.0f;
      const float* row = e.data() + v * C;
      for (int64_t c = 0; c < C; ++c) s += normed[c] * row[c];
      logits[v] = s;
    }
  } else {
    detail::ApplyLinearRow(*model.head(), normed, logits);
  }
}

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
  GptDecodeStep(*model_, token, position_, views_.data(), &scratch_,
                logits_.data());
  ++position_;
  return logits_;
}

}  // namespace llm::nn
