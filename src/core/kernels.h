// The row kernels: the one copy of the forward math, tied unembedding
// included, that the autograd ops (core/ops.h) and the cached decode step
// (nn/batched_decode.h) both run. The KV-cache decoder therefore equals
// GPTModel::ForwardLogits bit for bit by construction, on any finite
// weights: each kernel fixes the order of every floating-point operation
// it does, and neither caller does that math anywhere else.
//
// The build uses strict IEEE (no -ffast-math) and targets the baseline
// ISA, so the compiler neither reassociates these sums nor contracts a
// multiply and an add into an FMA.
#ifndef TFMR_CORE_KERNELS_H_
#define TFMR_CORE_KERNELS_H_

#include <cstdint>

namespace llm::core::kernels {

/// Y[r] = X[r] W (+ bias) for `rows` rows: X is [rows, in], W [in, out], Y
/// [rows, out], all row-major; Y must not alias X or W; bias may be null.
///
/// Every output accumulates x[r][i] * w[i][o] from +0, ascending over i,
/// and the bias is added afterwards, so an output does not depend on which
/// rows share the call. Rows run in register tiles of 4 rows by 8 outputs
/// (each W row segment loaded once for the four rows); the last rows % 4
/// rows, and a tile's last out % 8 outputs, run a row at a time.
///
/// A tile skips input i only when all four rows' x[r][i] are zero, and a
/// lone row skips each zero x[r][i]. For finite weights both are
/// value-neutral: x * w is then ±0, and adding ±0 leaves an accumulator
/// unchanged, since one that starts at +0 never becomes -0 (under
/// round-to-nearest a + (-a) is +0). A skipped 0 * inf or 0 * NaN term
/// would not be, so the contract holds for finite weights.
void Gemm(const float* x, const float* w, const float* bias, float* y,
          int64_t rows, int64_t in, int64_t out);

/// y[r][o] = x[r] . w[o]: X W^T for row-major X [rows, in] and W [out, in],
/// output row r being the `out` floats at y[r] (no overlaps). It is the
/// tied unembedding and every MatMul's input gradient. Every output is a
/// fresh chain from +0 over ascending i, no term skipped. Rows run eight to
/// a lane group over a zero-padded transposed copy in a per-thread buffer,
/// so each w[o][i] scales eight chains in two packed products, each lane in
/// its own chain's order (x * w == w * x bit for bit); a group of one row
/// runs its chain directly rather than carry seven padding lanes.
void GemmBt(const float* x, const float* w, float* const* y, int64_t rows,
            int64_t in, int64_t out);

struct RowMoments {
  float mean = 0.0f;
  float rstd = 0.0f;
};

/// y = gamma * ((x - mean) * rstd) + beta over one row of c values, with
/// the mean and variance summed in double and rstd = 1 / sqrt(var + eps).
/// Safe in place (y == x). Returns the row's mean and rstd, which
/// LayerNorm's backward keeps.
RowMoments LayerNormRow(const float* x, const float* gamma, const float* beta,
                        int64_t c, float eps, float* y);

/// sqrt(2/pi), the GELU tanh approximation's scale.
inline constexpr float kGeluScale = 0.7978845608028654f;

/// The activations' forward, elementwise over n values; y may equal x.
void ReluRow(const float* x, float* y, int64_t n);
/// 0.5 v (1 + tanh(sqrt(2/pi) (v + 0.044715 v^3))), the GPT-2 form.
void GeluRow(const float* x, float* y, int64_t n);
void TanhRow(const float* x, float* y, int64_t n);

/// y = exp(x - max x) / sum exp(x - max x) over one row of n > 0 values,
/// summed in ascending order. Safe in place (y == x).
void SoftmaxRow(const float* x, float* y, int64_t n);

/// One head of causal attention for the query at position t: SoftmaxRow
/// over j in [lo, t] of (q . k_j) / sqrt(hd), then out = sum_j p_j v_j.
/// Row j's key and value are hd floats at keys + j * stride and values +
/// j * stride (stride 3C in the training op's fused QKV rows, C in a
/// KV-cache slab). Writes the normalized p_j to probs[j] for j in [lo, t]
/// and leaves the rest of probs alone; overwrites out[0, hd).
void CausalAttentionRow(const float* q, const float* keys,
                        const float* values, int64_t stride, int64_t lo,
                        int64_t t, int64_t hd, float inv_sqrt, float* probs,
                        float* out);

}  // namespace llm::core::kernels

#endif  // TFMR_CORE_KERNELS_H_
