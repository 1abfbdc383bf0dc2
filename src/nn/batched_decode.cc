#include "nn/batched_decode.h"

#include <algorithm>
#include <cmath>

#include "obs/scoped_timer.h"

namespace llm::nn {

namespace {

/// y = LN(x) for one row of length C. Safe in-place (y == x).
inline void ApplyLayerNormRow(const LayerNorm& ln, const float* x, int64_t c,
                              float* y) {
  double mean = 0;
  for (int64_t i = 0; i < c; ++i) mean += x[i];
  mean /= static_cast<double>(c);
  double var = 0;
  for (int64_t i = 0; i < c; ++i) {
    const double d = x[i] - mean;
    var += d * d;
  }
  var /= static_cast<double>(c);
  const float rstd = 1.0f / std::sqrt(static_cast<float>(var) + ln.eps());
  const core::Tensor& gamma = ln.gamma().value();
  const core::Tensor& beta = ln.beta().value();
  for (int64_t i = 0; i < c; ++i) {
    y[i] = gamma[i] * (x[i] - static_cast<float>(mean)) * rstd + beta[i];
  }
}

/// y = x W + b for a single row (y must not alias x). Accumulates over the
/// input index in ascending order; zero inputs are skipped (a no-op on the
/// value: adding ±0 to a finite accumulator that is never -0 cannot change
/// it, so the batched kernels may keep those terms and still match).
inline void ApplyLinearRow(const Linear& linear, const float* x, float* y) {
  const int64_t in = linear.in_features();
  const int64_t out = linear.out_features();
  for (int64_t o = 0; o < out; ++o) y[o] = 0.0f;
  const float* w = linear.weight().value().data();  // [in, out]
  for (int64_t i = 0; i < in; ++i) {
    const float xv = x[i];
    if (xv == 0.0f) continue;
    const float* row = w + i * out;
    for (int64_t o = 0; o < out; ++o) y[o] += xv * row[o];
  }
  if (linear.has_bias()) {
    const core::Tensor& b = linear.bias().value();
    for (int64_t o = 0; o < out; ++o) y[o] += b[o];
  }
}

inline float ActivationFn(Activation act, float v) {
  switch (act) {
    case Activation::kRelu:
      return v > 0.0f ? v : 0.0f;
    case Activation::kGelu: {
      constexpr float kScale = 0.7978845608028654f;  // sqrt(2/pi)
      const float cube = 0.044715f * v * v * v;
      return 0.5f * v * (1.0f + std::tanh(kScale * (v + cube)));
    }
    case Activation::kTanh:
      return std::tanh(v);
  }
  LLM_CHECK(false);
  return v;
}

/// Single-head causal attention over one sequence's cache: softmax(q·K/√d)·V
/// for head h at position t, reading rows [lo, t] of the [*, C] cache slabs.
/// Writes the head's output slice o[0, hd). `scores` is caller scratch of
/// at least t+1 floats.
inline void AttendHeadRow(const float* q, const float* keys,
                          const float* values, int64_t t, int64_t lo,
                          int64_t c_total, int64_t h, int64_t hd,
                          float inv_sqrt, float* scores, float* o) {
  const int64_t off = h * hd;
  float maxv = -1e30f;
  for (int64_t j = lo; j <= t; ++j) {
    const float* k = keys + j * c_total + off;
    float s = 0.0f;
    for (int64_t c = 0; c < hd; ++c) s += q[c] * k[c];
    s *= inv_sqrt;
    scores[j] = s;
    maxv = std::max(maxv, s);
  }
  float sum = 0.0f;
  for (int64_t j = lo; j <= t; ++j) {
    scores[j] = std::exp(scores[j] - maxv);
    sum += scores[j];
  }
  const float inv = 1.0f / sum;
  for (int64_t j = lo; j <= t; ++j) {
    const float p = scores[j] * inv;
    const float* v = values + j * c_total + off;
    for (int64_t c = 0; c < hd; ++c) o[c] += p * v[c];
  }
}

// Four-wide SSE-width float vector via the GCC/Clang vector extension.
// Element-wise + and * on these are ordinary IEEE single-precision ops, so
// lane b of a vector accumulator computes exactly the scalar sequence the
// bit-exactness contract requires; the extension only guarantees the
// compiler emits packed instructions instead of hoping auto-vectorization
// fires (measured ~2x on these kernels with gcc 12 at -O3).
typedef float V4 __attribute__((vector_size(16)));
typedef float V4U __attribute__((vector_size(16), aligned(4)));

inline V4 LoadU(const float* p) {
  return *reinterpret_cast<const V4U*>(p);
}
inline void StoreU(float* p, V4 v) { *reinterpret_cast<V4U*>(p) = v; }
inline V4 Splat(float x) { return V4{x, x, x, x}; }

// Register-tile shape for the batched linear: kBT sequence lanes times a
// kOT-wide output tile of accumulators (kBT * kOT / 4 + kOT / 4 = 10 live
// vector registers, within the 16 of SSE). The weight row segment is
// loaded once per input index and reused by every lane, which is the whole
// point.
constexpr int64_t kBT = 4;
constexpr int64_t kOT = 8;

/// Y[b] = X[b] W + bias for B contiguous rows (X stride = in_features,
/// Y stride = out_features). Per-(b, o) accumulation order is ascending
/// over i, exactly like ApplyLinearRow; terms with X[b][i] == 0 are
/// value-neutral (see ApplyLinearRow), so lanes need not skip them
/// individually — only an all-lanes-zero input column is skipped.
void BatchedLinear(const Linear& linear, const float* X, float* Y,
                   int64_t B) {
  const int64_t in = linear.in_features();
  const int64_t out = linear.out_features();
  const float* w = linear.weight().value().data();  // [in, out]
  for (int64_t b0 = 0; b0 + kBT <= B; b0 += kBT) {
    const float* x0 = X + (b0 + 0) * in;
    const float* x1 = X + (b0 + 1) * in;
    const float* x2 = X + (b0 + 2) * in;
    const float* x3 = X + (b0 + 3) * in;
    int64_t o0 = 0;
    for (; o0 + kOT <= out; o0 += kOT) {
      V4 a00{}, a01{}, a10{}, a11{}, a20{}, a21{}, a30{}, a31{};
      const float* wp = w + o0;
      for (int64_t i = 0; i < in; ++i, wp += out) {
        if (x0[i] == 0.0f && x1[i] == 0.0f && x2[i] == 0.0f &&
            x3[i] == 0.0f) {
          continue;  // value-neutral; common after ReLU
        }
        const V4 w0 = LoadU(wp);
        const V4 w1 = LoadU(wp + 4);
        V4 xv = Splat(x0[i]);
        a00 += xv * w0;
        a01 += xv * w1;
        xv = Splat(x1[i]);
        a10 += xv * w0;
        a11 += xv * w1;
        xv = Splat(x2[i]);
        a20 += xv * w0;
        a21 += xv * w1;
        xv = Splat(x3[i]);
        a30 += xv * w0;
        a31 += xv * w1;
      }
      float* y = Y + (b0 + 0) * out + o0;
      StoreU(y, a00);
      StoreU(y + 4, a01);
      y = Y + (b0 + 1) * out + o0;
      StoreU(y, a10);
      StoreU(y + 4, a11);
      y = Y + (b0 + 2) * out + o0;
      StoreU(y, a20);
      StoreU(y + 4, a21);
      y = Y + (b0 + 3) * out + o0;
      StoreU(y, a30);
      StoreU(y + 4, a31);
    }
    for (; o0 < out; ++o0) {  // output-dim remainder, scalar
      float acc[kBT] = {};
      for (int64_t i = 0; i < in; ++i) {
        const float wv = w[i * out + o0];
        acc[0] += x0[i] * wv;
        acc[1] += x1[i] * wv;
        acc[2] += x2[i] * wv;
        acc[3] += x3[i] * wv;
      }
      for (int64_t b = 0; b < kBT; ++b) Y[(b0 + b) * out + o0] = acc[b];
    }
  }
  // Remainder lanes: plain per-row path (identical order by definition).
  for (int64_t b = B - B % kBT; b < B; ++b) {
    ApplyLinearRow(linear, X + b * in, Y + b * out);
  }
  if (linear.has_bias()) {
    const core::Tensor& bias = linear.bias().value();
    for (int64_t b = 0; b < B - B % kBT; ++b) {
      float* y = Y + b * out;
      for (int64_t o = 0; o < out; ++o) y[o] += bias[o];
    }
  }
}

// Lane width of the transposed-activation unembedding kernel.
constexpr int64_t kLanes = 8;

/// logits[b][v] = normed[b] . E[v] for the tied unembedding: a serial FP
/// dependency chain per (b, v), ascending over c. A group of two or more
/// lanes runs its chains in interleaved lanes over a transposed copy of the
/// rows, so packed ops run across sequences while each chain keeps its
/// order (and a*b == b*a bit-wise). A group of one lane runs its chain
/// alone rather than carry seven padding lanes.
void BatchedTiedUnembed(const core::Tensor& e, const float* normed,
                        SeqStepInput* seqs, int64_t B, int64_t C, int64_t V,
                        std::vector<float>* xt_buf) {
  const int64_t groups = (B + kLanes - 1) / kLanes;
  const int64_t bpad = groups * kLanes;
  xt_buf->assign(static_cast<size_t>(C * bpad), 0.0f);
  float* xt = xt_buf->data();
  for (int64_t b = 0; b < B; ++b) {
    const float* row = normed + b * C;
    for (int64_t c = 0; c < C; ++c) xt[c * bpad + b] = row[c];
  }
  for (int64_t g = 0; g < groups; ++g) {
    const int64_t lanes = std::min(kLanes, B - g * kLanes);
    if (lanes == 1) {
      const float* x = normed + g * kLanes * C;
      float* logits = seqs[g * kLanes].logits;
      for (int64_t v = 0; v < V; ++v) {
        const float* row = e.data() + v * C;
        float s = 0.0f;
        for (int64_t c = 0; c < C; ++c) s += x[c] * row[c];
        logits[v] = s;
      }
      continue;
    }
    const float* xg = xt + g * kLanes;
    for (int64_t v = 0; v < V; ++v) {
      const float* row = e.data() + v * C;
      V4 acc0{}, acc1{};
      for (int64_t c = 0; c < C; ++c) {
        const V4 rc = Splat(row[c]);
        const float* xc = xg + c * bpad;
        acc0 += LoadU(xc) * rc;
        acc1 += LoadU(xc + 4) * rc;
      }
      float acc[kLanes];
      StoreU(acc, acc0);
      StoreU(acc + 4, acc1);
      for (int64_t l = 0; l < lanes; ++l) {
        seqs[g * kLanes + l].logits[v] = acc[l];
      }
    }
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
      for (int64_t b = 0; b < B; ++b) {
        ApplyLayerNormRow(block->ln1(), x + b * C, C, normed + b * C);
      }
      attn_in = normed;
    }
    BatchedLinear(block->attention()->qkv(), attn_in, qkv, B);  // [B, 3C]

    const int window = block->attention()->window();
    for (int64_t b = 0; b < B; ++b) {
      KvLayerView& kv = seqs[b].layers[layer];
      const float* q = qkv + b * 3 * C;
      const int64_t t = seqs[b].position;
      for (int64_t c = 0; c < C; ++c) {
        kv.keys[t * C + c] = q[C + c];
        kv.values[t * C + c] = q[2 * C + c];
      }
      float* ab = att + b * C;
      for (int64_t c = 0; c < C; ++c) ab[c] = 0.0f;
      const int64_t lo =
          window > 0 ? std::max<int64_t>(0, t - window + 1) : int64_t{0};
      for (int64_t h = 0; h < H; ++h) {
        AttendHeadRow(q + h * hd, kv.keys, kv.values, t, lo, C, h,
                              hd, inv_sqrt, scratch->scores.data(),
                              ab + h * hd);
      }
    }
    BatchedLinear(block->attention()->proj(), att, proj, B);
    for (int64_t i = 0; i < B * C; ++i) x[i] += proj[i];
    if (!block->pre_layernorm()) {
      for (int64_t b = 0; b < B; ++b) {
        ApplyLayerNormRow(block->ln1(), x + b * C, C, x + b * C);
      }
    }

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
        for (int64_t b = 0; b < B; ++b) {
          ApplyLayerNormRow(block->ln2(), x + b * C, C,
                                    normed + b * C);
        }
        ffn_in = normed;
      }
      BatchedLinear(mlp->fc_in(), ffn_in, hidden, B);
      for (int64_t i = 0; i < B * hid; ++i) {
        hidden[i] = ActivationFn(mlp->activation(), hidden[i]);
      }
      BatchedLinear(mlp->fc_out(), hidden, mlp_out, B);
      for (int64_t i = 0; i < B * C; ++i) x[i] += mlp_out[i];
      if (!block->pre_layernorm()) {
        for (int64_t b = 0; b < B; ++b) {
          ApplyLayerNormRow(block->ln2(), x + b * C, C, x + b * C);
        }
      }
    }
  }

  for (int64_t b = 0; b < B; ++b) {
    ApplyLayerNormRow(model.final_layernorm(), x + b * C, C,
                              normed + b * C);
  }
  if (cfg.tie_embeddings) {
    BatchedTiedUnembed(model.token_embedding().weight().value(), normed,
                       seqs, B, C, cfg.vocab_size, &scratch->xt);
  } else {
    // Untied head: a batched linear into a contiguous staging block, then
    // scatter to the per-sequence logits buffers.
    scratch->mlp.resize(static_cast<size_t>(B * cfg.vocab_size));
    float* staged = scratch->mlp.data();
    BatchedLinear(*model.head(), normed, staged, B);
    for (int64_t b = 0; b < B; ++b) {
      const float* src = staged + b * cfg.vocab_size;
      std::copy(src, src + cfg.vocab_size, seqs[b].logits);
    }
  }
}

}  // namespace llm::nn
