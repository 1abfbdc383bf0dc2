// ShardedAdamW: ZeRO-1-style optimizer-state sharding for data-parallel
// training.
//
// Every rank holds a full replica of the parameters (data parallelism),
// but the AdamW moment tensors — which in fp32 are 2x the model size —
// are partitioned: each parameter has exactly one owner rank, chosen by a
// deterministic numel-balanced greedy partition that every rank computes
// identically. A rank allocates m/v only for the parameters it owns, so
// N-way training stores each moment once across the world instead of N
// times.
//
// Step() therefore updates only the owned parameters (using the globally
// averaged gradients, which every rank holds after the all-reduce); the
// updated values then travel to the other replicas via the parameter
// all-gather the distributed trainer runs right after Step. Each owned
// parameter steps through train::AdamWUpdate, the update plain AdamW
// runs, so a world_size=1 shard is bit-exact with the single-process
// optimizer by construction — the anchor for the distributed-equals-local
// equivalence tests.
//
// Checkpoint interop: ExportState() emits only the owned slots (type
// "adamw-shard"); the distributed trainer assembles the owned slices from
// all ranks into a full "adamw" state for the v2 checkpoint, and
// ImportState() accepts such a full state, keeping this rank's slice —
// so distributed checkpoints remain loadable by plain train::AdamW and
// vice versa.
#ifndef TFMR_TRAIN_DIST_SHARDED_ADAMW_H_
#define TFMR_TRAIN_DIST_SHARDED_ADAMW_H_

#include <vector>

#include "train/optimizer.h"

namespace llm::train::dist {

class ShardedAdamW : public Optimizer {
 public:
  ShardedAdamW(std::vector<core::Variable> params,
               const AdamWOptions& options, int rank, int world_size);

  /// AdamW update over the parameters this rank owns; other parameters
  /// are untouched (their new values arrive via the all-gather).
  void Step() override;

  /// Owned slots only, type "adamw-shard": slots m/<i> and v/<i> for each
  /// owned parameter index i, in index order.
  OptimizerState ExportState() const override;

  /// Accepts a full "adamw" state (2 slots per parameter, as written to
  /// distributed checkpoints or by plain AdamW) and keeps this rank's
  /// slice plus the step counter.
  util::Status ImportState(const OptimizerState& state) override;

  int rank() const { return rank_; }
  int world_size() const { return world_size_; }
  int64_t step_count() const { return step_; }

  /// Owner rank of parameter i.
  int owner(size_t i) const { return owners_[i]; }
  const std::vector<int>& owners() const { return owners_; }
  bool Owns(size_t i) const { return owners_[i] == rank_; }

  /// Owned moment tensors (defined only for owned indices); the trainer
  /// reads these across ranks — at a barrier — to assemble the full
  /// checkpoint state.
  const core::Tensor& m(size_t i) const { return m_[i]; }
  const core::Tensor& v(size_t i) const { return v_[i]; }

  /// Deterministic numel-balanced greedy partition: parameters in index
  /// order each go to the currently lightest rank (ties to the lowest
  /// rank). Identical on every rank by construction.
  static std::vector<int> PartitionOwners(
      const std::vector<core::Variable>& params, int world_size);

 private:
  AdamWOptions options_;
  int rank_;
  int world_size_;
  int64_t step_ = 0;
  std::vector<int> owners_;
  std::vector<core::Tensor> m_;  // allocated only at owned indices
  std::vector<core::Tensor> v_;
};

}  // namespace llm::train::dist

#endif  // TFMR_TRAIN_DIST_SHARDED_ADAMW_H_
