// Differentiable operations over Variables.
//
// Every op builds one graph node eagerly; backward closures are hand-written
// and verified against NumericalGradient in tests/core_ops_test.cc. The op
// set is deliberately small and fused where it matters (layernorm, softmax
// cross-entropy, multi-head causal attention) — the style of llm.c rather
// than a general broadcasting engine — which keeps every kernel auditable.
// The forward loops of MatMul, MatMulBt, LayerNorm, the activations and the
// attention run the row kernels of core/kernels.h, which the cached decode
// step (nn/batched_decode.h) runs too, so the two forwards agree bit for
// bit; MatMul's input gradient runs the tied unembedding's kernel, GemmBt.
#ifndef TFMR_CORE_OPS_H_
#define TFMR_CORE_OPS_H_

#include <vector>

#include "core/graph.h"
#include "util/rng.h"

namespace llm::core {

// ---------------------------------------------------------------------------
// Elementwise arithmetic (operands must have identical shapes).
// ---------------------------------------------------------------------------
Variable Add(const Variable& a, const Variable& b);
Variable Sub(const Variable& a, const Variable& b);
Variable Mul(const Variable& a, const Variable& b);
/// s * a.
Variable ScalarMul(const Variable& a, float s);
/// a + s (elementwise).
Variable AddScalar(const Variable& a, float s);
Variable Neg(const Variable& a);

// ---------------------------------------------------------------------------
// Linear algebra.
// ---------------------------------------------------------------------------
/// [m,k] x [k,n] -> [m,n].
Variable MatMul(const Variable& a, const Variable& b);
/// [m,k] x [n,k]^T -> [m,n], b never copied: the tied unembedding's op.
Variable MatMulBt(const Variable& a, const Variable& b);
/// x: [..., n], bias: [n]; adds bias to every row. The broadcast used for
/// both Linear bias and positional-embedding addition ([B,T*C] + [T*C]).
Variable AddRowBroadcast(const Variable& x, const Variable& bias);

// ---------------------------------------------------------------------------
// Activations.
// ---------------------------------------------------------------------------
Variable Relu(const Variable& x);
/// tanh-approximation GELU (the GPT-2 form).
Variable Gelu(const Variable& x);
Variable TanhOp(const Variable& x);
Variable SigmoidOp(const Variable& x);

// ---------------------------------------------------------------------------
// Shape manipulation (all copying; tensors are contiguous).
// ---------------------------------------------------------------------------
Variable Reshape(const Variable& x, Shape new_shape);
/// x viewed as [R, n]; returns [R, len] columns [start, start+len).
Variable SliceLastDim(const Variable& x, int64_t start, int64_t len);
/// Concatenates along the last dimension; leading dims must agree.
Variable ConcatLastDim(const std::vector<Variable>& xs);
/// T tensors of shape [B, C] -> [B, T, C] (time-major stacking for RNNs).
Variable StackTime(const std::vector<Variable>& steps);
/// x: [N, C]; returns rows indexed by `rows` as [M, C].
Variable GatherRows(const Variable& x, const std::vector<int64_t>& rows);

// ---------------------------------------------------------------------------
// Softmax and losses.
// ---------------------------------------------------------------------------
/// Softmax over the last dimension.
Variable Softmax(const Variable& x);
/// Mean negative log-likelihood of integer targets under softmax(logits).
/// logits: [N, V]; targets.size() == N. Rows with target == ignore_index
/// contribute nothing (padding). This is Eq. 3 of the paper evaluated on a
/// batch. Fused for numerical stability.
Variable CrossEntropyLogits(const Variable& logits,
                            const std::vector<int64_t>& targets,
                            int64_t ignore_index = -1);
/// Mean squared error against a constant target tensor.
Variable MseLoss(const Variable& pred, const Tensor& target);
Variable SumAll(const Variable& x);
Variable MeanAll(const Variable& x);

// ---------------------------------------------------------------------------
// Embedding.
// ---------------------------------------------------------------------------
/// weight: [V, C]; returns [ids.size(), C] with rows weight[ids[i]].
Variable EmbeddingLookup(const Variable& weight,
                         const std::vector<int64_t>& ids);

// ---------------------------------------------------------------------------
// Normalization & regularization.
// ---------------------------------------------------------------------------
/// Layer normalization over the last dimension with affine parameters.
/// x: [..., C], gamma/beta: [C].
Variable LayerNorm(const Variable& x, const Variable& gamma,
                   const Variable& beta, float eps = 1e-5f);
/// Inverted dropout: identity when !training or p == 0.
Variable Dropout(const Variable& x, float p, util::Rng* rng, bool training);

// ---------------------------------------------------------------------------
// Attention (Eq. 13-14 of the paper, multi-head, causal).
// ---------------------------------------------------------------------------
struct AttentionOptions {
  int num_heads = 1;
  /// If > 0, each position attends only to the last `window` positions
  /// (the "sparse attention" of §6); otherwise full causal attention.
  int window = 0;
  /// If non-null, receives the attention probabilities [B, H, T, T] at
  /// forward time (for interpretability: induction-head scores etc.).
  Tensor* save_probs = nullptr;
};

/// qkv: [B, T, 3C] (query rows, then key rows, then value rows along the
/// last dim); returns [B, T, C]. C must be divisible by num_heads. Scores
/// are scaled by 1/sqrt(head_dim) and masked causally.
Variable MultiHeadCausalAttention(const Variable& qkv,
                                  const AttentionOptions& opts);

}  // namespace llm::core

#endif  // TFMR_CORE_OPS_H_
