#include "core/kernels.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace llm::core::kernels {

namespace {

// Four-wide SSE-width float vector (GCC/Clang vector extension). Its + and
// * are ordinary IEEE single-precision ops, so each lane of an accumulator
// computes exactly the scalar sequence its output would see alone.
typedef float V4 __attribute__((vector_size(16)));
typedef float V4U __attribute__((vector_size(16), aligned(4)));

V4 LoadU(const float* p) { return *reinterpret_cast<const V4U*>(p); }
void StoreU(float* p, V4 v) { *reinterpret_cast<V4U*>(p) = v; }
V4 Splat(float x) { return V4{x, x, x, x}; }

// Register-tile shape: kTileRows rows times a kTileCols-wide output tile of
// accumulators (kTileRows * kTileCols / 4 + kTileCols / 4 = 10 live vector
// registers, within the 16 of SSE).
constexpr int64_t kTileRows = 4;
constexpr int64_t kTileCols = 8;

// GemmBt's lane group width, and one thread's transposed group: [in, 8].
constexpr int64_t kLanes = 8;
thread_local std::vector<float> t_group;

/// y[o] = x . w[:, o] for o in [o0, out) of one row, each zero x[i] skipped.
void RowSpan(const float* x, const float* w, float* y, int64_t in,
             int64_t out, int64_t o0) {
  std::fill(y + o0, y + out, 0.0f);
  for (int64_t i = 0; i < in; ++i) {
    const float xv = x[i];
    if (xv == 0.0f) continue;
    const float* wr = w + i * out;
    for (int64_t o = o0; o < out; ++o) y[o] += xv * wr[o];
  }
}

}  // namespace

void Gemm(const float* x, const float* w, const float* bias, float* y,
          int64_t rows, int64_t in, int64_t out) {
  int64_t r0 = 0;
  for (; r0 + kTileRows <= rows; r0 += kTileRows) {
    const float* x0 = x + (r0 + 0) * in;
    const float* x1 = x + (r0 + 1) * in;
    const float* x2 = x + (r0 + 2) * in;
    const float* x3 = x + (r0 + 3) * in;
    int64_t o0 = 0;
    for (; o0 + kTileCols <= out; o0 += kTileCols) {
      V4 a00{}, a01{}, a10{}, a11{}, a20{}, a21{}, a30{}, a31{};
      const float* wp = w + o0;
      for (int64_t i = 0; i < in; ++i, wp += out) {
        if (x0[i] == 0.0f && x1[i] == 0.0f && x2[i] == 0.0f &&
            x3[i] == 0.0f) {
          continue;  // value-neutral; common after ReLU
        }
        const V4 w0 = LoadU(wp);
        const V4 w1 = LoadU(wp + 4);
        a00 += Splat(x0[i]) * w0;
        a01 += Splat(x0[i]) * w1;
        a10 += Splat(x1[i]) * w0;
        a11 += Splat(x1[i]) * w1;
        a20 += Splat(x2[i]) * w0;
        a21 += Splat(x2[i]) * w1;
        a30 += Splat(x3[i]) * w0;
        a31 += Splat(x3[i]) * w1;
      }
      float* yp = y + (r0 + 0) * out + o0;
      StoreU(yp, a00);
      StoreU(yp + 4, a01);
      yp = y + (r0 + 1) * out + o0;
      StoreU(yp, a10);
      StoreU(yp + 4, a11);
      yp = y + (r0 + 2) * out + o0;
      StoreU(yp, a20);
      StoreU(yp + 4, a21);
      yp = y + (r0 + 3) * out + o0;
      StoreU(yp, a30);
      StoreU(yp + 4, a31);
    }
    if (o0 < out) {  // output remainder, a row at a time
      for (int64_t r = r0; r < r0 + kTileRows; ++r) {
        RowSpan(x + r * in, w, y + r * out, in, out, o0);
      }
    }
  }
  for (; r0 < rows; ++r0) RowSpan(x + r0 * in, w, y + r0 * out, in, out, 0);
  if (bias != nullptr) {
    for (int64_t r = 0; r < rows; ++r) {
      float* yr = y + r * out;
      for (int64_t o = 0; o < out; ++o) yr[o] += bias[o];
    }
  }
}

void GemmBt(const float* x, const float* w, float* const* y, int64_t rows,
            int64_t in, int64_t out) {
  for (int64_t r0 = 0; r0 < rows; r0 += kLanes) {
    const int64_t lanes = std::min(kLanes, rows - r0);
    if (lanes == 1) {
      const float* xr = x + r0 * in;
      for (int64_t o = 0; o < out; ++o) {
        const float* wr = w + o * in;
        float s = 0.0f;
        for (int64_t i = 0; i < in; ++i) s += xr[i] * wr[i];
        y[r0][o] = s;
      }
      continue;
    }
    t_group.assign(static_cast<size_t>(in * kLanes), 0.0f);
    float* xt = t_group.data();
    for (int64_t l = 0; l < lanes; ++l) {
      const float* xr = x + (r0 + l) * in;
      for (int64_t i = 0; i < in; ++i) xt[i * kLanes + l] = xr[i];
    }
    for (int64_t o = 0; o < out; ++o) {
      const float* wr = w + o * in;
      V4 acc0{}, acc1{};
      for (int64_t i = 0; i < in; ++i) {
        const V4 wi = Splat(wr[i]);
        acc0 += LoadU(xt + i * kLanes) * wi;
        acc1 += LoadU(xt + i * kLanes + 4) * wi;
      }
      float acc[kLanes];
      StoreU(acc, acc0);
      StoreU(acc + 4, acc1);
      for (int64_t l = 0; l < lanes; ++l) y[r0 + l][o] = acc[l];
    }
  }
}

RowMoments LayerNormRow(const float* x, const float* gamma, const float* beta,
                        int64_t c, float eps, float* y) {
  double mean = 0.0;
  for (int64_t i = 0; i < c; ++i) mean += x[i];
  mean /= static_cast<double>(c);
  double var = 0.0;
  for (int64_t i = 0; i < c; ++i) {
    const double d = x[i] - mean;
    var += d * d;
  }
  var /= static_cast<double>(c);
  const RowMoments m{static_cast<float>(mean),
                     1.0f / std::sqrt(static_cast<float>(var) + eps)};
  for (int64_t i = 0; i < c; ++i) {
    y[i] = gamma[i] * ((x[i] - m.mean) * m.rstd) + beta[i];
  }
  return m;
}

void ReluRow(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void GeluRow(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float v = x[i];
    const float cube = 0.044715f * v * v * v;
    y[i] = 0.5f * v * (1.0f + std::tanh(kGeluScale * (v + cube)));
  }
}

void TanhRow(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = std::tanh(x[i]);
}

void SoftmaxRow(const float* x, float* y, int64_t n) {
  float maxv = x[0];
  for (int64_t i = 1; i < n; ++i) maxv = std::max(maxv, x[i]);
  float sum = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    y[i] = std::exp(x[i] - maxv);
    sum += y[i];
  }
  const float inv = 1.0f / sum;
  for (int64_t i = 0; i < n; ++i) y[i] *= inv;
}

void CausalAttentionRow(const float* q, const float* keys,
                        const float* values, int64_t stride, int64_t lo,
                        int64_t t, int64_t hd, float inv_sqrt, float* probs,
                        float* out) {
  for (int64_t j = lo; j <= t; ++j) {
    const float* k = keys + j * stride;
    float s = 0.0f;
    for (int64_t c = 0; c < hd; ++c) s += q[c] * k[c];
    probs[j] = s * inv_sqrt;
  }
  SoftmaxRow(probs + lo, probs + lo, t - lo + 1);
  std::fill(out, out + hd, 0.0f);
  for (int64_t j = lo; j <= t; ++j) {
    const float p = probs[j];
    const float* v = values + j * stride;
    for (int64_t c = 0; c < hd; ++c) out[c] += p * v[c];
  }
}

}  // namespace llm::core::kernels
