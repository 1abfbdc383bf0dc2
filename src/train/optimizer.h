// Optimizers: plain SGD (paper Eq. 16), SGD with momentum, and AdamW
// (decoupled weight decay — the optimizer used in the grokking literature
// the paper discusses in §4).
#ifndef TFMR_TRAIN_OPTIMIZER_H_
#define TFMR_TRAIN_OPTIMIZER_H_

#include <string>
#include <utility>
#include <vector>

#include "core/graph.h"
#include "util/status.h"

namespace llm::train {

/// Serializable snapshot of an optimizer's internal state (beyond the
/// parameters themselves): the step counter and any per-parameter slot
/// tensors (momentum, Adam moments). Checkpoint v2 persists this so a
/// resumed run is bit-exact with an uninterrupted one.
struct OptimizerState {
  /// Which optimizer produced the state ("sgd", "adamw"); ImportState
  /// rejects a mismatch.
  std::string type;
  int64_t step = 0;
  /// Named slot tensors, e.g. "m/3" / "v/3" for AdamW moments of param 3.
  std::vector<std::pair<std::string, core::Tensor>> slots;
};

/// Base class: owns the parameter list and the learning rate.
class Optimizer {
 public:
  explicit Optimizer(std::vector<core::Variable> params, float lr);
  virtual ~Optimizer() = default;

  /// Applies one update from the accumulated gradients.
  virtual void Step() = 0;

  /// Zeroes all parameter gradients (call after Step).
  void ZeroGrad();

  /// Snapshot / restore internal state for checkpointing. The base
  /// optimizer is stateless; subclasses with slots override both.
  virtual OptimizerState ExportState() const { return {"stateless", 0, {}}; }
  virtual util::Status ImportState(const OptimizerState& state);

  float lr() const { return lr_; }
  void set_lr(float lr) { lr_ = lr; }

  const std::vector<core::Variable>& params() const { return params_; }

 protected:
  /// Shared ImportState validation: checks the type tag and that every
  /// slot's shape matches the corresponding parameter.
  util::Status CheckStateShape(const OptimizerState& state,
                               const std::string& expected_type,
                               size_t slots_per_param) const;

  std::vector<core::Variable> params_;
  float lr_;
};

/// theta <- theta - lr * grad, optionally with momentum buffer.
class Sgd : public Optimizer {
 public:
  Sgd(std::vector<core::Variable> params, float lr, float momentum = 0.0f);

  void Step() override;

  OptimizerState ExportState() const override;
  util::Status ImportState(const OptimizerState& state) override;

 private:
  float momentum_;
  std::vector<core::Tensor> velocity_;  // allocated on first step if needed
};

struct AdamWOptions {
  float lr = 1e-3f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
  /// Decoupled weight decay. Applied only to parameters with ndim >= 2
  /// (matrices), never to biases, gains, or embedding-free vectors —
  /// the standard masking.
  float weight_decay = 0.0f;
};

/// One AdamW update of parameter `p` (skipped when it has no gradient)
/// at optimizer step `step` (1-based) with learning rate `lr`, moving its
/// moments `m` and `v`. AdamW and dist::ShardedAdamW both step through
/// it, so a one-rank shard is bit-exact with AdamW by construction.
void AdamWUpdate(const AdamWOptions& options, float lr, int64_t step,
                 core::Variable& p, core::Tensor& m, core::Tensor& v);

class AdamW : public Optimizer {
 public:
  AdamW(std::vector<core::Variable> params, const AdamWOptions& options);

  void Step() override;

  OptimizerState ExportState() const override;
  util::Status ImportState(const OptimizerState& state) override;

  int64_t step_count() const { return step_; }

 private:
  AdamWOptions options_;
  int64_t step_ = 0;
  std::vector<core::Tensor> m_;
  std::vector<core::Tensor> v_;
};

/// Scales all gradients so their global L2 norm is at most max_norm.
/// Returns the pre-clip norm. No-op (returns norm) if max_norm <= 0.
float ClipGradNorm(const std::vector<core::Variable>& params, float max_norm);

}  // namespace llm::train

#endif  // TFMR_TRAIN_OPTIMIZER_H_
