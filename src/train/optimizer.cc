#include "train/optimizer.h"

#include <cmath>

namespace llm::train {

Optimizer::Optimizer(std::vector<core::Variable> params, float lr)
    : params_(std::move(params)), lr_(lr) {
  for (const auto& p : params_) {
    LLM_CHECK(p.defined());
    LLM_CHECK(p.requires_grad()) << "optimizer given a frozen parameter";
  }
}

void Optimizer::ZeroGrad() {
  for (auto& p : params_) p.ZeroGrad();
}

util::Status Optimizer::ImportState(const OptimizerState& state) {
  if (!state.slots.empty()) {
    return util::Status::FailedPrecondition(
        "stateless optimizer given " + std::to_string(state.slots.size()) +
        " state slots");
  }
  return util::Status::OK();
}

util::Status Optimizer::CheckStateShape(const OptimizerState& state,
                                        const std::string& expected_type,
                                        size_t slots_per_param) const {
  if (state.type != expected_type) {
    return util::Status::FailedPrecondition(
        "optimizer state type mismatch: file has '" + state.type +
        "', optimizer is '" + expected_type + "'");
  }
  const size_t expected = slots_per_param * params_.size();
  if (state.slots.size() != expected) {
    return util::Status::FailedPrecondition(
        "optimizer state has " + std::to_string(state.slots.size()) +
        " slots, expected " + std::to_string(expected));
  }
  for (size_t i = 0; i < state.slots.size(); ++i) {
    const core::Tensor& t = state.slots[i].second;
    const core::Variable& p = params_[i % params_.size()];
    if (t.shape() != p.shape()) {
      return util::Status::FailedPrecondition(
          "optimizer slot '" + state.slots[i].first + "' has shape " +
          core::ShapeToString(t.shape()) + ", parameter has " +
          core::ShapeToString(p.shape()));
    }
  }
  return util::Status::OK();
}

Sgd::Sgd(std::vector<core::Variable> params, float lr, float momentum)
    : Optimizer(std::move(params), lr), momentum_(momentum) {}

void Sgd::Step() {
  if (momentum_ != 0.0f && velocity_.empty()) {
    velocity_.reserve(params_.size());
    for (const auto& p : params_) velocity_.emplace_back(p.shape());
  }
  for (size_t i = 0; i < params_.size(); ++i) {
    core::Variable& p = params_[i];
    if (!p.has_grad()) continue;
    const core::Tensor& g = p.grad();
    core::Tensor& w = p.mutable_value();
    if (momentum_ == 0.0f) {
      w.AddScaled(g, -lr_);
    } else {
      core::Tensor& vel = velocity_[i];
      vel.Scale(momentum_);
      vel.Add(g);
      w.AddScaled(vel, -lr_);
    }
  }
}

OptimizerState Sgd::ExportState() const {
  OptimizerState state{"sgd", 0, {}};
  for (size_t i = 0; i < velocity_.size(); ++i) {
    state.slots.emplace_back("velocity/" + std::to_string(i), velocity_[i]);
  }
  return state;
}

util::Status Sgd::ImportState(const OptimizerState& state) {
  // Velocity buffers are lazily allocated, so both "no slots yet" and one
  // slot per parameter are valid snapshots.
  const size_t per_param = state.slots.empty() ? 0 : 1;
  LLM_RETURN_IF_ERROR(CheckStateShape(state, "sgd", per_param));
  velocity_.clear();
  for (const auto& [name, t] : state.slots) velocity_.push_back(t);
  return util::Status::OK();
}

AdamW::AdamW(std::vector<core::Variable> params, const AdamWOptions& options)
    : Optimizer(std::move(params), options.lr), options_(options) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.emplace_back(p.shape());
    v_.emplace_back(p.shape());
  }
}

void AdamWUpdate(const AdamWOptions& options, float lr, int64_t step,
                 core::Variable& p, core::Tensor& m, core::Tensor& v) {
  if (!p.has_grad()) return;
  const float b1 = options.beta1, b2 = options.beta2;
  const float bias1 = 1.0f - std::pow(b1, static_cast<float>(step));
  const float bias2 = 1.0f - std::pow(b2, static_cast<float>(step));
  const core::Tensor& g = p.grad();
  core::Tensor& w = p.mutable_value();
  const bool decay = options.weight_decay > 0.0f && w.ndim() >= 2;
  for (int64_t j = 0; j < w.numel(); ++j) {
    m[j] = b1 * m[j] + (1.0f - b1) * g[j];
    v[j] = b2 * v[j] + (1.0f - b2) * g[j] * g[j];
    const float mhat = m[j] / bias1;
    const float vhat = v[j] / bias2;
    float update = mhat / (std::sqrt(vhat) + options.eps);
    if (decay) update += options.weight_decay * w[j];
    w[j] -= lr * update;
  }
}

void AdamW::Step() {
  ++step_;
  for (size_t i = 0; i < params_.size(); ++i) {
    AdamWUpdate(options_, lr_, step_, params_[i], m_[i], v_[i]);
  }
}

OptimizerState AdamW::ExportState() const {
  OptimizerState state{"adamw", step_, {}};
  for (size_t i = 0; i < m_.size(); ++i) {
    state.slots.emplace_back("m/" + std::to_string(i), m_[i]);
  }
  for (size_t i = 0; i < v_.size(); ++i) {
    state.slots.emplace_back("v/" + std::to_string(i), v_[i]);
  }
  return state;
}

util::Status AdamW::ImportState(const OptimizerState& state) {
  LLM_RETURN_IF_ERROR(CheckStateShape(state, "adamw", 2));
  const size_t n = params_.size();
  for (size_t i = 0; i < n; ++i) {
    m_[i] = state.slots[i].second;
    v_[i] = state.slots[n + i].second;
  }
  step_ = state.step;
  return util::Status::OK();
}

float ClipGradNorm(const std::vector<core::Variable>& params,
                   float max_norm) {
  double sq = 0.0;
  for (const auto& p : params) {
    if (p.has_grad()) sq += p.grad().SquaredNorm();
  }
  const float norm = static_cast<float>(std::sqrt(sq));
  if (max_norm > 0.0f && norm > max_norm) {
    const float scale = max_norm / (norm + 1e-12f);
    for (auto p : params) {
      if (p.has_grad()) p.mutable_grad().Scale(scale);
    }
  }
  return norm;
}

}  // namespace llm::train
