#include "core/ops.h"

#include <cmath>
#include <vector>

#include "core/kernels.h"

namespace llm::core {

namespace {

/// Builds a node whose requires_grad is the OR of its parents'.
NodePtr MakeNode(const char* op, Tensor value,
                 std::vector<NodePtr> parents) {
  auto n = std::make_shared<Node>();
  n->op = op;
  n->value = std::move(value);
  n->parents = std::move(parents);
  for (const auto& p : n->parents) {
    if (p->requires_grad) {
      n->requires_grad = true;
      break;
    }
  }
  return n;
}

void AccumulateIfNeeded(Node* parent, const Tensor& delta) {
  if (parent->requires_grad) parent->EnsureGrad().Add(delta);
}

/// X W^T for X [rows, in] and W [out, in], by kernels::GemmBt into a fresh
/// [rows, out] tensor.
Tensor GemmBt(const float* x, const float* w, int64_t rows, int64_t in,
              int64_t out) {
  Tensor y({rows, out});
  std::vector<float*> y_rows;
  for (int64_t r = 0; r < rows; ++r) y_rows.push_back(y.data() + r * out);
  kernels::GemmBt(x, w, y_rows.data(), rows, in, out);
  return y;
}

// The backward's A^T x G (its G x B^T is GemmBt, its G x B kernels::Gemm):
//   dB[k,n] += A[m,k] * G[m,n]
void GemmAccumAt(const float* a, const float* g, float* db, int64_t M,
                 int64_t K, int64_t N) {
  for (int64_t m = 0; m < M; ++m) {
    const float* arow = a + m * K;
    const float* grow = g + m * N;
    for (int64_t k = 0; k < K; ++k) {
      const float av = arow[k];
      if (av == 0.0f) continue;
      float* dbrow = db + k * N;
      for (int64_t n = 0; n < N; ++n) dbrow[n] += av * grow[n];
    }
  }
}

/// Unary op helper: out = fwd(x) over the whole tensor, dx += g * dfn(x, y)
/// elementwise.
Variable UnaryElementwise(const char* op, const Variable& x,
                          void (*fwd)(const float*, float*, int64_t),
                          float (*dfn)(float /*x*/, float /*y*/)) {
  const Tensor& xv = x.value();
  Tensor out(xv.shape());
  fwd(xv.data(), out.data(), xv.numel());
  auto node = MakeNode(op, std::move(out), {x.node()});
  if (node->requires_grad) {
    node->backward = [dfn](Node* n) {
      Node* p = n->parents[0].get();
      if (!p->requires_grad) return;
      Tensor& dx = p->EnsureGrad();
      const Tensor& xv = p->value;
      const Tensor& yv = n->value;
      const Tensor& g = n->grad;
      for (int64_t i = 0; i < xv.numel(); ++i) {
        dx[i] += g[i] * dfn(xv[i], yv[i]);
      }
    };
  }
  return Variable::FromNode(node);
}

}  // namespace

Variable Add(const Variable& a, const Variable& b) {
  LLM_CHECK(a.value().SameShape(b.value()))
      << ShapeToString(a.shape()) << " vs " << ShapeToString(b.shape());
  Tensor out = a.value();
  out.Add(b.value());
  auto node = MakeNode("add", std::move(out), {a.node(), b.node()});
  if (node->requires_grad) {
    node->backward = [](Node* n) {
      AccumulateIfNeeded(n->parents[0].get(), n->grad);
      AccumulateIfNeeded(n->parents[1].get(), n->grad);
    };
  }
  return Variable::FromNode(node);
}

Variable Sub(const Variable& a, const Variable& b) {
  LLM_CHECK(a.value().SameShape(b.value()));
  Tensor out = a.value();
  out.AddScaled(b.value(), -1.0f);
  auto node = MakeNode("sub", std::move(out), {a.node(), b.node()});
  if (node->requires_grad) {
    node->backward = [](Node* n) {
      AccumulateIfNeeded(n->parents[0].get(), n->grad);
      Node* b = n->parents[1].get();
      if (b->requires_grad) b->EnsureGrad().AddScaled(n->grad, -1.0f);
    };
  }
  return Variable::FromNode(node);
}

Variable Mul(const Variable& a, const Variable& b) {
  LLM_CHECK(a.value().SameShape(b.value()));
  Tensor out(a.shape());
  for (int64_t i = 0; i < out.numel(); ++i) {
    out[i] = a.value()[i] * b.value()[i];
  }
  auto node = MakeNode("mul", std::move(out), {a.node(), b.node()});
  if (node->requires_grad) {
    node->backward = [](Node* n) {
      Node* a = n->parents[0].get();
      Node* b = n->parents[1].get();
      if (a->requires_grad) {
        Tensor& da = a->EnsureGrad();
        for (int64_t i = 0; i < da.numel(); ++i) {
          da[i] += n->grad[i] * b->value[i];
        }
      }
      if (b->requires_grad) {
        Tensor& db = b->EnsureGrad();
        for (int64_t i = 0; i < db.numel(); ++i) {
          db[i] += n->grad[i] * a->value[i];
        }
      }
    };
  }
  return Variable::FromNode(node);
}

Variable ScalarMul(const Variable& a, float s) {
  Tensor out = a.value();
  out.Scale(s);
  auto node = MakeNode("scalar_mul", std::move(out), {a.node()});
  if (node->requires_grad) {
    node->backward = [s](Node* n) {
      Node* a = n->parents[0].get();
      if (a->requires_grad) a->EnsureGrad().AddScaled(n->grad, s);
    };
  }
  return Variable::FromNode(node);
}

Variable AddScalar(const Variable& a, float s) {
  Tensor out = a.value();
  for (int64_t i = 0; i < out.numel(); ++i) out[i] += s;
  auto node = MakeNode("add_scalar", std::move(out), {a.node()});
  if (node->requires_grad) {
    node->backward = [](Node* n) {
      AccumulateIfNeeded(n->parents[0].get(), n->grad);
    };
  }
  return Variable::FromNode(node);
}

Variable Neg(const Variable& a) { return ScalarMul(a, -1.0f); }

Variable MatMul(const Variable& a, const Variable& b) {
  LLM_CHECK_EQ(a.value().ndim(), 2);
  LLM_CHECK_EQ(b.value().ndim(), 2);
  const int64_t M = a.value().dim(0), K = a.value().dim(1);
  LLM_CHECK_EQ(b.value().dim(0), K)
      << ShapeToString(a.shape()) << " x " << ShapeToString(b.shape());
  const int64_t N = b.value().dim(1);
  Tensor out({M, N});
  kernels::Gemm(a.value().data(), b.value().data(), /*bias=*/nullptr,
                out.data(), M, K, N);
  auto node = MakeNode("matmul", std::move(out), {a.node(), b.node()});
  if (node->requires_grad) {
    node->backward = [M, K, N](Node* n) {
      Node* a = n->parents[0].get();
      Node* b = n->parents[1].get();
      if (a->requires_grad) {
        a->EnsureGrad().Add(GemmBt(n->grad.data(), b->value.data(), M, N, K));
      }
      if (b->requires_grad) {
        GemmAccumAt(a->value.data(), n->grad.data(),
                    b->EnsureGrad().data(), M, K, N);
      }
    };
  }
  return Variable::FromNode(node);
}

Variable MatMulBt(const Variable& a, const Variable& b) {
  LLM_CHECK_EQ(a.value().ndim(), 2);
  LLM_CHECK_EQ(b.value().ndim(), 2);
  const int64_t M = a.value().dim(0), K = a.value().dim(1);
  LLM_CHECK_EQ(b.value().dim(1), K)
      << ShapeToString(a.shape()) << " x " << ShapeToString(b.shape()) << "^T";
  const int64_t N = b.value().dim(0);
  Tensor out = GemmBt(a.value().data(), b.value().data(), M, K, N);
  auto node = MakeNode("matmul_bt", std::move(out), {a.node(), b.node()});
  if (node->requires_grad) {
    node->backward = [M, K, N](Node* n) {
      Node* a = n->parents[0].get();
      Node* b = n->parents[1].get();
      if (a->requires_grad) {
        Tensor da({M, K});
        kernels::Gemm(n->grad.data(), b->value.data(), /*bias=*/nullptr,
                      da.data(), M, N, K);
        a->EnsureGrad().Add(da);
      }
      if (b->requires_grad) {
        Tensor db({N, K});
        GemmAccumAt(n->grad.data(), a->value.data(), db.data(), M, N, K);
        b->EnsureGrad().Add(db);
      }
    };
  }
  return Variable::FromNode(node);
}

Variable AddRowBroadcast(const Variable& x, const Variable& bias) {
  LLM_CHECK_EQ(bias.value().ndim(), 1);
  const int64_t C = bias.value().dim(0);
  LLM_CHECK_GE(x.value().ndim(), 1);
  LLM_CHECK_EQ(x.shape().back(), C);
  const int64_t R = x.numel() / C;
  Tensor out = x.value();
  {
    float* o = out.data();
    const float* b = bias.value().data();
    for (int64_t r = 0; r < R; ++r) {
      for (int64_t c = 0; c < C; ++c) o[r * C + c] += b[c];
    }
  }
  auto node =
      MakeNode("add_row_broadcast", std::move(out), {x.node(), bias.node()});
  if (node->requires_grad) {
    node->backward = [R, C](Node* n) {
      AccumulateIfNeeded(n->parents[0].get(), n->grad);
      Node* bias = n->parents[1].get();
      if (bias->requires_grad) {
        Tensor& db = bias->EnsureGrad();
        const float* g = n->grad.data();
        for (int64_t r = 0; r < R; ++r) {
          for (int64_t c = 0; c < C; ++c) db[c] += g[r * C + c];
        }
      }
    };
  }
  return Variable::FromNode(node);
}

Variable Relu(const Variable& x) {
  return UnaryElementwise("relu", x, kernels::ReluRow, [](float v, float) {
    return v > 0.0f ? 1.0f : 0.0f;
  });
}

Variable Gelu(const Variable& x) {
  return UnaryElementwise("gelu", x, kernels::GeluRow, [](float v, float) {
    const float cube = 0.044715f * v * v * v;
    const float t = std::tanh(kernels::kGeluScale * (v + cube));
    const float sech2 = 1.0f - t * t;
    return 0.5f * (1.0f + t) + 0.5f * v * sech2 * kernels::kGeluScale *
                                   (1.0f + 3.0f * 0.044715f * v * v);
  });
}

Variable TanhOp(const Variable& x) {
  return UnaryElementwise("tanh", x, kernels::TanhRow,
                          [](float, float y) { return 1.0f - y * y; });
}

Variable SigmoidOp(const Variable& x) {
  return UnaryElementwise(
      "sigmoid", x,
      [](const float* v, float* y, int64_t n) {
        for (int64_t i = 0; i < n; ++i) y[i] = 1.0f / (1.0f + std::exp(-v[i]));
      },
      [](float, float y) { return y * (1.0f - y); });
}

Variable Reshape(const Variable& x, Shape new_shape) {
  Tensor out = x.value().Reshaped(std::move(new_shape));
  auto node = MakeNode("reshape", std::move(out), {x.node()});
  if (node->requires_grad) {
    node->backward = [](Node* n) {
      Node* x = n->parents[0].get();
      if (!x->requires_grad) return;
      Tensor& dx = x->EnsureGrad();
      const Tensor& g = n->grad;
      for (int64_t i = 0; i < dx.numel(); ++i) dx[i] += g[i];
    };
  }
  return Variable::FromNode(node);
}

Variable SliceLastDim(const Variable& x, int64_t start, int64_t len) {
  const int64_t C = x.shape().back();
  LLM_CHECK_GE(start, 0);
  LLM_CHECK_GT(len, 0);
  LLM_CHECK_LE(start + len, C);
  const int64_t R = x.numel() / C;
  Shape out_shape = x.shape();
  out_shape.back() = len;
  Tensor out(out_shape);
  const float* src = x.value().data();
  float* dst = out.data();
  for (int64_t r = 0; r < R; ++r) {
    for (int64_t c = 0; c < len; ++c) dst[r * len + c] = src[r * C + start + c];
  }
  auto node = MakeNode("slice_last", std::move(out), {x.node()});
  if (node->requires_grad) {
    node->backward = [R, C, start, len](Node* n) {
      Node* x = n->parents[0].get();
      if (!x->requires_grad) return;
      Tensor& dx = x->EnsureGrad();
      const float* g = n->grad.data();
      for (int64_t r = 0; r < R; ++r) {
        for (int64_t c = 0; c < len; ++c) {
          dx[r * C + start + c] += g[r * len + c];
        }
      }
    };
  }
  return Variable::FromNode(node);
}

Variable ConcatLastDim(const std::vector<Variable>& xs) {
  LLM_CHECK(!xs.empty());
  const int64_t C0 = xs[0].shape().back();
  const int64_t R = xs[0].numel() / C0;
  int64_t total_c = 0;
  std::vector<int64_t> widths;
  widths.reserve(xs.size());
  for (const auto& x : xs) {
    const int64_t c = x.shape().back();
    LLM_CHECK_EQ(x.numel() / c, R) << "leading dims differ in ConcatLastDim";
    widths.push_back(c);
    total_c += c;
  }
  Shape out_shape = xs[0].shape();
  out_shape.back() = total_c;
  Tensor out(out_shape);
  float* dst = out.data();
  int64_t offset = 0;
  std::vector<NodePtr> parents;
  parents.reserve(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    const float* src = xs[i].value().data();
    const int64_t c = widths[i];
    for (int64_t r = 0; r < R; ++r) {
      for (int64_t j = 0; j < c; ++j) {
        dst[r * total_c + offset + j] = src[r * c + j];
      }
    }
    offset += c;
    parents.push_back(xs[i].node());
  }
  auto node = MakeNode("concat_last", std::move(out), std::move(parents));
  if (node->requires_grad) {
    node->backward = [R, total_c, widths](Node* n) {
      const float* g = n->grad.data();
      int64_t offset = 0;
      for (size_t i = 0; i < n->parents.size(); ++i) {
        Node* p = n->parents[i].get();
        const int64_t c = widths[i];
        if (p->requires_grad) {
          Tensor& dp = p->EnsureGrad();
          for (int64_t r = 0; r < R; ++r) {
            for (int64_t j = 0; j < c; ++j) {
              dp[r * c + j] += g[r * total_c + offset + j];
            }
          }
        }
        offset += c;
      }
    };
  }
  return Variable::FromNode(node);
}

Variable StackTime(const std::vector<Variable>& steps) {
  LLM_CHECK(!steps.empty());
  LLM_CHECK_EQ(steps[0].value().ndim(), 2);
  const int64_t B = steps[0].value().dim(0);
  const int64_t C = steps[0].value().dim(1);
  const int64_t T = static_cast<int64_t>(steps.size());
  Tensor out({B, T, C});
  std::vector<NodePtr> parents;
  parents.reserve(steps.size());
  for (int64_t t = 0; t < T; ++t) {
    LLM_CHECK(steps[static_cast<size_t>(t)].value().SameShape(
        steps[0].value()));
    const float* src = steps[static_cast<size_t>(t)].value().data();
    float* dst = out.data();
    for (int64_t b = 0; b < B; ++b) {
      for (int64_t c = 0; c < C; ++c) {
        dst[(b * T + t) * C + c] = src[b * C + c];
      }
    }
    parents.push_back(steps[static_cast<size_t>(t)].node());
  }
  auto node = MakeNode("stack_time", std::move(out), std::move(parents));
  if (node->requires_grad) {
    node->backward = [B, T, C](Node* n) {
      const float* g = n->grad.data();
      for (int64_t t = 0; t < T; ++t) {
        Node* p = n->parents[static_cast<size_t>(t)].get();
        if (!p->requires_grad) continue;
        Tensor& dp = p->EnsureGrad();
        for (int64_t b = 0; b < B; ++b) {
          for (int64_t c = 0; c < C; ++c) {
            dp[b * C + c] += g[(b * T + t) * C + c];
          }
        }
      }
    };
  }
  return Variable::FromNode(node);
}

Variable GatherRows(const Variable& x, const std::vector<int64_t>& rows) {
  LLM_CHECK_EQ(x.value().ndim(), 2);
  const int64_t N = x.value().dim(0), C = x.value().dim(1);
  const int64_t M = static_cast<int64_t>(rows.size());
  Tensor out({M, C});
  const float* src = x.value().data();
  float* dst = out.data();
  for (int64_t i = 0; i < M; ++i) {
    const int64_t r = rows[static_cast<size_t>(i)];
    LLM_CHECK_GE(r, 0);
    LLM_CHECK_LT(r, N);
    for (int64_t c = 0; c < C; ++c) dst[i * C + c] = src[r * C + c];
  }
  auto node = MakeNode("gather_rows", std::move(out), {x.node()});
  node->saved_ints = rows;
  if (node->requires_grad) {
    node->backward = [C](Node* n) {
      Node* x = n->parents[0].get();
      if (!x->requires_grad) return;
      Tensor& dx = x->EnsureGrad();
      const float* g = n->grad.data();
      for (size_t i = 0; i < n->saved_ints.size(); ++i) {
        const int64_t r = n->saved_ints[i];
        for (int64_t c = 0; c < C; ++c) {
          dx[r * C + c] += g[static_cast<int64_t>(i) * C + c];
        }
      }
    };
  }
  return Variable::FromNode(node);
}

Variable Softmax(const Variable& x) {
  const int64_t C = x.shape().back();
  const int64_t R = x.numel() / C;
  Tensor out(x.shape());
  const float* src = x.value().data();
  float* dst = out.data();
  for (int64_t r = 0; r < R; ++r) {
    kernels::SoftmaxRow(src + r * C, dst + r * C, C);
  }
  auto node = MakeNode("softmax", std::move(out), {x.node()});
  if (node->requires_grad) {
    node->backward = [R, C](Node* n) {
      Node* x = n->parents[0].get();
      if (!x->requires_grad) return;
      Tensor& dx = x->EnsureGrad();
      const float* y = n->value.data();
      const float* g = n->grad.data();
      for (int64_t r = 0; r < R; ++r) {
        const float* yr = y + r * C;
        const float* gr = g + r * C;
        float dot = 0.0f;
        for (int64_t c = 0; c < C; ++c) dot += yr[c] * gr[c];
        for (int64_t c = 0; c < C; ++c) {
          dx[r * C + c] += yr[c] * (gr[c] - dot);
        }
      }
    };
  }
  return Variable::FromNode(node);
}

Variable CrossEntropyLogits(const Variable& logits,
                            const std::vector<int64_t>& targets,
                            int64_t ignore_index) {
  LLM_CHECK_EQ(logits.value().ndim(), 2);
  const int64_t N = logits.value().dim(0), V = logits.value().dim(1);
  LLM_CHECK_EQ(static_cast<int64_t>(targets.size()), N);

  Tensor probs({N, V});
  const float* in = logits.value().data();
  float* p = probs.data();
  double total = 0.0;
  int64_t counted = 0;
  for (int64_t r = 0; r < N; ++r) {
    float* prow = p + r * V;
    kernels::SoftmaxRow(in + r * V, prow, V);
    const int64_t t = targets[static_cast<size_t>(r)];
    if (t == ignore_index) continue;
    LLM_CHECK_GE(t, 0);
    LLM_CHECK_LT(t, V);
    total += -std::log(std::max(prow[t], 1e-30f));
    ++counted;
  }
  LLM_CHECK_GT(counted, 0) << "all targets ignored in CrossEntropyLogits";
  Tensor loss = Tensor::Scalar(static_cast<float>(total / counted));

  auto node = MakeNode("cross_entropy", std::move(loss), {logits.node()});
  node->saved.push_back(std::move(probs));
  node->saved_ints = targets;
  node->saved_ints.push_back(ignore_index);
  node->saved_ints.push_back(counted);
  if (node->requires_grad) {
    node->backward = [N, V](Node* n) {
      Node* logits = n->parents[0].get();
      if (!logits->requires_grad) return;
      Tensor& dx = logits->EnsureGrad();
      const Tensor& probs = n->saved[0];
      const int64_t ignore = n->saved_ints[static_cast<size_t>(N)];
      const int64_t counted = n->saved_ints[static_cast<size_t>(N) + 1];
      const float scale = n->grad[0] / static_cast<float>(counted);
      for (int64_t r = 0; r < N; ++r) {
        const int64_t t = n->saved_ints[static_cast<size_t>(r)];
        if (t == ignore) continue;
        for (int64_t c = 0; c < V; ++c) {
          float d = probs[r * V + c];
          if (c == t) d -= 1.0f;
          dx[r * V + c] += scale * d;
        }
      }
    };
  }
  return Variable::FromNode(node);
}

Variable MseLoss(const Variable& pred, const Tensor& target) {
  LLM_CHECK(pred.value().SameShape(target));
  const int64_t n_elems = pred.numel();
  double total = 0.0;
  for (int64_t i = 0; i < n_elems; ++i) {
    const double d = pred.value()[i] - target[i];
    total += d * d;
  }
  Tensor loss = Tensor::Scalar(static_cast<float>(total / n_elems));
  auto node = MakeNode("mse", std::move(loss), {pred.node()});
  node->saved.push_back(target);
  if (node->requires_grad) {
    node->backward = [n_elems](Node* n) {
      Node* pred = n->parents[0].get();
      if (!pred->requires_grad) return;
      Tensor& dx = pred->EnsureGrad();
      const Tensor& target = n->saved[0];
      const float scale = 2.0f * n->grad[0] / static_cast<float>(n_elems);
      for (int64_t i = 0; i < n_elems; ++i) {
        dx[i] += scale * (pred->value[i] - target[i]);
      }
    };
  }
  return Variable::FromNode(node);
}

Variable SumAll(const Variable& x) {
  Tensor out = Tensor::Scalar(x.value().Sum());
  auto node = MakeNode("sum", std::move(out), {x.node()});
  if (node->requires_grad) {
    node->backward = [](Node* n) {
      Node* x = n->parents[0].get();
      if (!x->requires_grad) return;
      Tensor& dx = x->EnsureGrad();
      const float g = n->grad[0];
      for (int64_t i = 0; i < dx.numel(); ++i) dx[i] += g;
    };
  }
  return Variable::FromNode(node);
}

Variable MeanAll(const Variable& x) {
  const float inv = 1.0f / static_cast<float>(x.numel());
  Tensor out = Tensor::Scalar(x.value().Sum() * inv);
  auto node = MakeNode("mean", std::move(out), {x.node()});
  if (node->requires_grad) {
    node->backward = [inv](Node* n) {
      Node* x = n->parents[0].get();
      if (!x->requires_grad) return;
      Tensor& dx = x->EnsureGrad();
      const float g = n->grad[0] * inv;
      for (int64_t i = 0; i < dx.numel(); ++i) dx[i] += g;
    };
  }
  return Variable::FromNode(node);
}

Variable EmbeddingLookup(const Variable& weight,
                         const std::vector<int64_t>& ids) {
  LLM_CHECK_EQ(weight.value().ndim(), 2);
  const int64_t V = weight.value().dim(0), C = weight.value().dim(1);
  const int64_t M = static_cast<int64_t>(ids.size());
  Tensor out({M, C});
  const float* w = weight.value().data();
  float* dst = out.data();
  for (int64_t i = 0; i < M; ++i) {
    const int64_t id = ids[static_cast<size_t>(i)];
    LLM_CHECK_GE(id, 0);
    LLM_CHECK_LT(id, V);
    for (int64_t c = 0; c < C; ++c) dst[i * C + c] = w[id * C + c];
  }
  auto node = MakeNode("embedding", std::move(out), {weight.node()});
  node->saved_ints = ids;
  if (node->requires_grad) {
    node->backward = [C](Node* n) {
      Node* w = n->parents[0].get();
      if (!w->requires_grad) return;
      Tensor& dw = w->EnsureGrad();
      const float* g = n->grad.data();
      for (size_t i = 0; i < n->saved_ints.size(); ++i) {
        const int64_t id = n->saved_ints[i];
        for (int64_t c = 0; c < C; ++c) {
          dw[id * C + c] += g[static_cast<int64_t>(i) * C + c];
        }
      }
    };
  }
  return Variable::FromNode(node);
}

Variable LayerNorm(const Variable& x, const Variable& gamma,
                   const Variable& beta, float eps) {
  const int64_t C = x.shape().back();
  LLM_CHECK_EQ(gamma.numel(), C);
  LLM_CHECK_EQ(beta.numel(), C);
  const int64_t R = x.numel() / C;
  Tensor out(x.shape());
  Tensor mean({R});
  Tensor rstd({R});
  const float* in = x.value().data();
  const float* gw = gamma.value().data();
  const float* bw = beta.value().data();
  float* o = out.data();
  for (int64_t r = 0; r < R; ++r) {
    const kernels::RowMoments m =
        kernels::LayerNormRow(in + r * C, gw, bw, C, eps, o + r * C);
    mean[r] = m.mean;
    rstd[r] = m.rstd;
  }
  auto node = MakeNode("layernorm", std::move(out),
                       {x.node(), gamma.node(), beta.node()});
  node->saved.push_back(std::move(mean));
  node->saved.push_back(std::move(rstd));
  if (node->requires_grad) {
    node->backward = [R, C](Node* n) {
      Node* x = n->parents[0].get();
      Node* gamma = n->parents[1].get();
      Node* beta = n->parents[2].get();
      const Tensor& mean = n->saved[0];
      const Tensor& rstd = n->saved[1];
      const float* in = x->value.data();
      const float* gw = gamma->value.data();
      const float* g = n->grad.data();
      Tensor* dgamma = gamma->requires_grad ? &gamma->EnsureGrad() : nullptr;
      Tensor* dbeta = beta->requires_grad ? &beta->EnsureGrad() : nullptr;
      Tensor* dx = x->requires_grad ? &x->EnsureGrad() : nullptr;
      for (int64_t r = 0; r < R; ++r) {
        const float* row = in + r * C;
        const float* grow = g + r * C;
        const float m = mean[r];
        const float rs = rstd[r];
        // Two reductions shared by all of dx's terms.
        float sum_gg = 0.0f;        // sum of g*gamma
        float sum_gg_xhat = 0.0f;   // sum of g*gamma*xhat
        for (int64_t c = 0; c < C; ++c) {
          const float xhat = (row[c] - m) * rs;
          const float gg = grow[c] * gw[c];
          sum_gg += gg;
          sum_gg_xhat += gg * xhat;
          if (dgamma) (*dgamma)[c] += grow[c] * xhat;
          if (dbeta) (*dbeta)[c] += grow[c];
        }
        if (dx) {
          const float inv_c = 1.0f / static_cast<float>(C);
          for (int64_t c = 0; c < C; ++c) {
            const float xhat = (row[c] - m) * rs;
            const float gg = grow[c] * gw[c];
            (*dx)[r * C + c] +=
                rs * (gg - inv_c * sum_gg - xhat * inv_c * sum_gg_xhat);
          }
        }
      }
    };
  }
  return Variable::FromNode(node);
}

Variable Dropout(const Variable& x, float p, util::Rng* rng, bool training) {
  if (!training || p <= 0.0f) return x;
  LLM_CHECK(rng != nullptr);
  LLM_CHECK_LT(p, 1.0f);
  const float scale = 1.0f / (1.0f - p);
  Tensor mask(x.shape());
  Tensor out(x.shape());
  for (int64_t i = 0; i < out.numel(); ++i) {
    const float m = rng->Bernoulli(p) ? 0.0f : scale;
    mask[i] = m;
    out[i] = x.value()[i] * m;
  }
  auto node = MakeNode("dropout", std::move(out), {x.node()});
  node->saved.push_back(std::move(mask));
  if (node->requires_grad) {
    node->backward = [](Node* n) {
      Node* x = n->parents[0].get();
      if (!x->requires_grad) return;
      Tensor& dx = x->EnsureGrad();
      const Tensor& mask = n->saved[0];
      for (int64_t i = 0; i < dx.numel(); ++i) {
        dx[i] += n->grad[i] * mask[i];
      }
    };
  }
  return Variable::FromNode(node);
}

Variable MultiHeadCausalAttention(const Variable& qkv,
                                  const AttentionOptions& opts) {
  LLM_CHECK_EQ(qkv.value().ndim(), 3);
  const int64_t B = qkv.value().dim(0);
  const int64_t T = qkv.value().dim(1);
  const int64_t C3 = qkv.value().dim(2);
  LLM_CHECK_EQ(C3 % 3, 0);
  const int64_t C = C3 / 3;
  const int64_t H = opts.num_heads;
  LLM_CHECK_GT(H, 0);
  LLM_CHECK_EQ(C % H, 0) << "channels" << C << "not divisible by heads" << H;
  const int64_t hd = C / H;
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(hd));
  const int64_t window = opts.window;

  Tensor out({B, T, C});
  Tensor att({B, H, T, T});  // probabilities; zero outside the causal window
  const float* in = qkv.value().data();
  float* o = out.data();
  float* a = att.data();

  for (int64_t b = 0; b < B; ++b) {
    for (int64_t h = 0; h < H; ++h) {
      // Head h's query, key and value slices of sequence b's row 0.
      const float* head = in + b * T * C3 + h * hd;
      for (int64_t i = 0; i < T; ++i) {
        const int64_t lo =
            window > 0 ? std::max<int64_t>(0, i - window + 1) : int64_t{0};
        kernels::CausalAttentionRow(head + i * C3, head + C, head + 2 * C, C3,
                                    lo, i, hd, inv_sqrt,
                                    a + ((b * H + h) * T + i) * T,
                                    o + (b * T + i) * C + h * hd);
      }
    }
  }

  if (opts.save_probs != nullptr) *opts.save_probs = att;

  auto node = MakeNode("mh_causal_attention", std::move(out), {qkv.node()});
  node->saved.push_back(std::move(att));
  node->saved_ints = {B, T, C, H, window};
  if (node->requires_grad) {
    node->backward = [inv_sqrt](Node* n) {
      Node* qkv = n->parents[0].get();
      if (!qkv->requires_grad) return;
      const int64_t B = n->saved_ints[0], T = n->saved_ints[1],
                    C = n->saved_ints[2], H = n->saved_ints[3],
                    window = n->saved_ints[4];
      const int64_t hd = C / H;
      const int64_t C3 = 3 * C;
      const Tensor& att = n->saved[0];
      const float* a = att.data();
      const float* g = n->grad.data();
      const float* in = qkv->value.data();
      Tensor& dqkv = qkv->EnsureGrad();
      float* din = dqkv.data();

      std::vector<float> datt(static_cast<size_t>(T));
      for (int64_t b = 0; b < B; ++b) {
        for (int64_t h = 0; h < H; ++h) {
          for (int64_t i = 0; i < T; ++i) {
            const int64_t lo =
                window > 0 ? std::max<int64_t>(0, i - window + 1) : int64_t{0};
            const float* arow = a + ((b * H + h) * T + i) * T;
            const float* grow = g + (b * T + i) * C + h * hd;
            // d(att) and dV.
            for (int64_t j = lo; j <= i; ++j) {
              const float* v = in + (b * T + j) * C3 + 2 * C + h * hd;
              float* dv = din + (b * T + j) * C3 + 2 * C + h * hd;
              float acc = 0.0f;
              const float p = arow[j];
              for (int64_t c = 0; c < hd; ++c) {
                acc += grow[c] * v[c];
                dv[c] += p * grow[c];
              }
              datt[static_cast<size_t>(j)] = acc;
            }
            // Softmax backward -> scores gradient (reuse datt in place).
            float dot = 0.0f;
            for (int64_t j = lo; j <= i; ++j) {
              dot += arow[j] * datt[static_cast<size_t>(j)];
            }
            // dQ, dK.
            const float* q = in + (b * T + i) * C3 + h * hd;
            float* dq = din + (b * T + i) * C3 + h * hd;
            for (int64_t j = lo; j <= i; ++j) {
              const float ds =
                  arow[j] * (datt[static_cast<size_t>(j)] - dot) * inv_sqrt;
              const float* k = in + (b * T + j) * C3 + C + h * hd;
              float* dk = din + (b * T + j) * C3 + C + h * hd;
              for (int64_t c = 0; c < hd; ++c) {
                dq[c] += ds * k[c];
                dk[c] += ds * q[c];
              }
            }
          }
        }
      }
    };
  }
  return Variable::FromNode(node);
}

}  // namespace llm::core
