#include "nn/batched_decode.h"

#include <algorithm>
#include <cmath>

#include "core/kernels.h"
#include "obs/scoped_timer.h"

namespace llm::nn {

namespace {

// A linear layer and a LayerNorm over B contiguous rows, by the kernels that
// core::MatMul (then core::AddRowBroadcast's bias) and core::LayerNorm run
// forward. LayerNormRows is safe in place (y == x).
void LinearRows(const Linear& linear, const float* X, float* Y, int64_t B) {
  core::kernels::Gemm(X, linear.weight().value().data(),
                      linear.has_bias() ? linear.bias().value().data()
                                        : nullptr,
                      Y, B, linear.in_features(), linear.out_features());
}

void LayerNormRows(const LayerNorm& ln, const float* x, float* y, int64_t B,
                   int64_t C) {
  const float* gamma = ln.gamma().value().data();
  const float* beta = ln.beta().value().data();
  for (int64_t b = 0; b < B; ++b) {
    core::kernels::LayerNormRow(x + b * C, gamma, beta, C, ln.eps(),
                                y + b * C);
  }
}

}  // namespace

void BatchedDecodeStep(const GPTModel& model, SeqStepInput* seqs, int64_t n,
                       BatchedScratch* scratch) {
  if (n <= 0) return;
  // Hot-path profiling: resolved once, recorded only while
  // obs::EnableProfiling(true) — otherwise one relaxed load and no clock.
  static obs::Histogram* const decode_hist =
      obs::MetricsRegistry::Global().GetHistogram("nn.decode_step_ms");
  obs::ScopedTimer decode_timer(decode_hist);
  const GPTConfig& cfg = model.config();
  const int64_t B = n;
  const int64_t C = cfg.d_model;
  const int64_t H = cfg.n_head;
  const int64_t hd = C / H;
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(hd));

  int64_t max_pos = 0;
  for (int64_t b = 0; b < B; ++b) {
    LLM_CHECK(seqs[b].layers != nullptr);
    LLM_CHECK(seqs[b].logits != nullptr);
    LLM_CHECK_GE(seqs[b].position, 0);
    LLM_CHECK_LT(seqs[b].position, cfg.max_seq_len);
    LLM_CHECK_GE(seqs[b].token, 0);
    LLM_CHECK_LT(seqs[b].token, cfg.vocab_size);
    max_pos = std::max(max_pos, seqs[b].position);
  }

  scratch->x.resize(static_cast<size_t>(B * C));
  scratch->normed.resize(static_cast<size_t>(B * C));
  scratch->qkv.resize(static_cast<size_t>(B * 3 * C));
  scratch->att.resize(static_cast<size_t>(B * C));
  scratch->proj.resize(static_cast<size_t>(B * C));
  scratch->scores.resize(static_cast<size_t>(max_pos + 1));
  float* x = scratch->x.data();
  float* normed = scratch->normed.data();
  float* qkv = scratch->qkv.data();
  float* att = scratch->att.data();
  float* proj = scratch->proj.data();

  // Embedding + position, one row per sequence.
  const core::Tensor& emb = model.token_embedding().weight().value();
  const core::Tensor& pos = model.position_embedding().value();
  for (int64_t b = 0; b < B; ++b) {
    float* xb = x + b * C;
    const int64_t tok = seqs[b].token;
    const int64_t p = seqs[b].position;
    for (int64_t c = 0; c < C; ++c) xb[c] = emb[tok * C + c] + pos[p * C + c];
  }

  for (int layer = 0; layer < cfg.n_layer; ++layer) {
    const TransformerBlock* block = model.block(layer);

    // ---- Attention sublayer ----
    const float* attn_in = x;
    if (block->pre_layernorm()) {
      LayerNormRows(block->ln1(), x, normed, B, C);
      attn_in = normed;
    }
    LinearRows(block->attention()->qkv(), attn_in, qkv, B);  // [B, 3C]

    const int window = block->attention()->window();
    for (int64_t b = 0; b < B; ++b) {
      KvLayerView& kv = seqs[b].layers[layer];
      const float* q = qkv + b * 3 * C;
      const int64_t t = seqs[b].position;
      std::copy(q + C, q + 2 * C, kv.keys + t * C);
      std::copy(q + 2 * C, q + 3 * C, kv.values + t * C);
      const int64_t lo =
          window > 0 ? std::max<int64_t>(0, t - window + 1) : int64_t{0};
      for (int64_t h = 0; h < H; ++h) {
        core::kernels::CausalAttentionRow(
            q + h * hd, kv.keys + h * hd, kv.values + h * hd, C, lo, t, hd,
            inv_sqrt, scratch->scores.data(), att + b * C + h * hd);
      }
    }
    LinearRows(block->attention()->proj(), att, proj, B);
    for (int64_t i = 0; i < B * C; ++i) x[i] += proj[i];
    if (!block->pre_layernorm()) LayerNormRows(block->ln1(), x, x, B, C);

    // ---- FFN sublayer ----
    if (block->mlp() != nullptr) {
      const Mlp* mlp = block->mlp();
      const int64_t hid = mlp->fc_in().out_features();
      scratch->hidden.resize(static_cast<size_t>(B * hid));
      scratch->mlp.resize(static_cast<size_t>(B * C));
      float* hidden = scratch->hidden.data();
      float* mlp_out = scratch->mlp.data();
      const float* ffn_in = x;
      if (block->pre_layernorm()) {
        LayerNormRows(block->ln2(), x, normed, B, C);
        ffn_in = normed;
      }
      LinearRows(mlp->fc_in(), ffn_in, hidden, B);
      ActivationRow(mlp->activation())(hidden, hidden, B * hid);
      LinearRows(mlp->fc_out(), hidden, mlp_out, B);
      for (int64_t i = 0; i < B * C; ++i) x[i] += mlp_out[i];
      if (!block->pre_layernorm()) LayerNormRows(block->ln2(), x, x, B, C);
    }
  }

  LayerNormRows(model.final_layernorm(), x, normed, B, C);
  if (cfg.tie_embeddings) {
    // core::MatMulBt's kernel, writing each lane's row into its logits.
    scratch->logits.clear();
    for (int64_t b = 0; b < B; ++b) scratch->logits.push_back(seqs[b].logits);
    core::kernels::GemmBt(normed, emb.data(), scratch->logits.data(), B, C,
                          cfg.vocab_size);
  } else {
    // Untied head: a batched linear into a contiguous staging block, then
    // scatter to the per-sequence logits buffers.
    scratch->mlp.resize(static_cast<size_t>(B * cfg.vocab_size));
    float* staged = scratch->mlp.data();
    LinearRows(*model.head(), normed, staged, B);
    for (int64_t b = 0; b < B; ++b) {
      const float* src = staged + b * cfg.vocab_size;
      std::copy(src, src + cfg.vocab_size, seqs[b].logits);
    }
  }
}

}  // namespace llm::nn
