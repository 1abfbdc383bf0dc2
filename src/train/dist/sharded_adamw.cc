#include "train/dist/sharded_adamw.h"

namespace llm::train::dist {

std::vector<int> ShardedAdamW::PartitionOwners(
    const std::vector<core::Variable>& params, int world_size) {
  std::vector<int64_t> load(static_cast<size_t>(world_size), 0);
  std::vector<int> owners;
  owners.reserve(params.size());
  for (const auto& p : params) {
    int lightest = 0;
    for (int r = 1; r < world_size; ++r) {
      if (load[static_cast<size_t>(r)] < load[static_cast<size_t>(lightest)]) {
        lightest = r;
      }
    }
    owners.push_back(lightest);
    load[static_cast<size_t>(lightest)] += p.numel();
  }
  return owners;
}

ShardedAdamW::ShardedAdamW(std::vector<core::Variable> params,
                           const AdamWOptions& options, int rank,
                           int world_size)
    : Optimizer(std::move(params), options.lr),
      options_(options),
      rank_(rank),
      world_size_(world_size) {
  LLM_CHECK(rank >= 0 && rank < world_size);
  owners_ = PartitionOwners(params_, world_size);
  m_.resize(params_.size());
  v_.resize(params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    if (owners_[i] == rank_) {
      m_[i] = core::Tensor(params_[i].shape());
      v_[i] = core::Tensor(params_[i].shape());
    }
  }
}

void ShardedAdamW::Step() {
  ++step_;
  for (size_t i = 0; i < params_.size(); ++i) {
    if (owners_[i] == rank_) {
      AdamWUpdate(options_, lr_, step_, params_[i], m_[i], v_[i]);
    }
  }
}

OptimizerState ShardedAdamW::ExportState() const {
  OptimizerState state{"adamw-shard", step_, {}};
  for (size_t i = 0; i < params_.size(); ++i) {
    if (owners_[i] != rank_) continue;
    state.slots.emplace_back("m/" + std::to_string(i), m_[i]);
  }
  for (size_t i = 0; i < params_.size(); ++i) {
    if (owners_[i] != rank_) continue;
    state.slots.emplace_back("v/" + std::to_string(i), v_[i]);
  }
  return state;
}

util::Status ShardedAdamW::ImportState(const OptimizerState& state) {
  // Full "adamw" layout only: m/0..m/n-1 then v/0..v/n-1, as plain AdamW
  // exports and distributed checkpoints store.
  LLM_RETURN_IF_ERROR(CheckStateShape(state, "adamw", 2));
  const size_t n = params_.size();
  for (size_t i = 0; i < n; ++i) {
    if (owners_[i] != rank_) continue;
    m_[i] = state.slots[i].second;
    v_[i] = state.slots[n + i].second;
  }
  step_ = state.step;
  return util::Status::OK();
}

}  // namespace llm::train::dist
