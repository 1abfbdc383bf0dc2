// DistTrainer: fault-tolerant data-parallel training over N local workers.
//
// Topology: one coordinator (the thread that calls Run) and world_size
// worker threads. Every worker owns a full model replica and a
// ZeRO-1-sharded AdamW (sharded_adamw.h); each step it
//
//   1. builds the loss on its own data shard (the caller's DistLossFn
//      sees rank/world_size/step and a per-(seed,rank,step) RNG),
//   2. runs Backward locally,
//   3. all-reduces gradients (and the scalar loss) to the global mean
//      through the CommHub — rank-ordered summation, so every replica
//      computes bit-identical averaged gradients,
//   4. clips by the global norm, applies the AdamW update to the
//      parameters it owns, and
//   5. all-gathers the updated owner slices so every replica ends the
//      step bit-identical.
//
// Elasticity is the headline. The GangSupervisor (gang_supervisor.h)
// runs these threads exactly as ProcGroupCoordinator's processes: the
// newest valid checkpoint is the rendezvous, and a worker that dies
// (FaultSite::kWorkerKill), stalls past the heartbeat timeout
// (kWorkerStraggle), or fails a collective (a dropped or corrupted
// contribution) collapses the epoch, and the full world respawns from
// that checkpoint. Replay is bit-exact, so a run that survives any number
// of incidents ends with the weights and loss curve of an unfaulted run —
// the property dist_chaos_test asserts over seeded fault storms. Every
// incident lands in the flight recorder and in incident_reports().
#ifndef TFMR_TRAIN_DIST_DIST_TRAINER_H_
#define TFMR_TRAIN_DIST_DIST_TRAINER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/telemetry.h"
#include "train/dist/gang_supervisor.h"
#include "train/dist/worker_loop.h"
#include "train/optimizer.h"
#include "train/schedule.h"
#include "train/trainer.h"
#include "util/status.h"

namespace llm::train::dist {

struct DistTrainerOptions {
  int world_size = 2;
  int64_t max_steps = 100;
  /// Global grad-norm clip applied to the averaged gradients; 0 disables.
  float clip_norm = 0.0f;
  /// Optional LR schedule; when null the AdamW lr is used as-is.
  const LrSchedule* schedule = nullptr;
  AdamWOptions adamw;

  /// Rendezvous + recovery substrate. Required: workers join and recover
  /// by loading the newest checkpoint here.
  std::string checkpoint_dir;
  /// Save every this many steps (plus one initial and one final save);
  /// 0 = only initial and final.
  int64_t checkpoint_every = 0;
  int keep_last_k = 2;

  /// Base seed for the per-(rank, step) data RNG handed to the loss fn.
  uint64_t seed = 0x5eedULL;

  /// Full-world respawns allowed before Run gives up with Internal.
  int max_recoveries = 8;
  /// Bound on every collective wait; a rank that misses it poisons the
  /// round and triggers a recovery epoch.
  std::chrono::milliseconds collective_timeout{2000};
  /// A running worker whose heartbeat counter is flat for this long is
  /// declared stalled. Must comfortably exceed the longest legitimate
  /// inter-heartbeat gap: one step's compute plus the checkpoint barrier
  /// (4x collective_timeout). A premature stall verdict costs a wasted
  /// recovery epoch, never a wrong result.
  std::chrono::milliseconds heartbeat_timeout{10000};
  /// Monitor poll interval.
  std::chrono::milliseconds monitor_poll{2};
  /// Sleep injected when FaultSite::kWorkerStraggle fires. Below
  /// collective_timeout it is a benign slowdown; above it, the straggler
  /// is recovered like a dead worker.
  int64_t straggle_ms = 20;

  CommTransport transport = CommTransport::kThread;
  /// Socket transport only: Unix socket path or "tcp://HOST:PORT".
  /// Empty = "<checkpoint_dir>/comm.sock".
  std::string socket_address;
  /// Socket transport only: a running rank whose transport connection has
  /// been dirtily down this long is fenced by the monitor — transport
  /// death is detected here, long before heartbeat_timeout or a full
  /// collective timeout would notice. Must exceed a worst-case reconnect
  /// (backoff cap + handshake) so a transient drop stays benign.
  std::chrono::milliseconds disconnect_grace{400};

  /// Workers ship a rank-tagged telemetry unit to the coordinator's
  /// aggregator every N steps (plus a final one); 0 = off. Workers here
  /// share the coordinator's process, so each unit carries only that
  /// rank's "dist.worker.<r>." metrics and no flight events — the
  /// aggregator's cross-rank sums stay honest and nothing is
  /// double-counted (see WorkerLoopOptions::telemetry_whole_process).
  int64_t telemetry_every = 0;
};

class DistTrainer {
 public:
  DistTrainer(const DistTrainerOptions& options, ModelFactory model_factory,
              DistLossFn loss_fn);
  ~DistTrainer();

  DistTrainer(const DistTrainer&) = delete;
  DistTrainer& operator=(const DistTrainer&) = delete;

  /// Runs to max_steps, surviving up to max_recoveries incidents. If the
  /// checkpoint dir already holds a checkpoint, the run resumes from it.
  /// Returns OK on completion; Internal when the recovery budget is
  /// exhausted (message carries the incident log); or the underlying IO
  /// error when even the initial checkpoint cannot be written.
  util::Status Run();

  /// Global loss curve (the all-reduced mean loss per step), recorded by
  /// rank 0. Valid after Run.
  const std::vector<StepRecord>& history() const { return history_; }

  const std::vector<DistIncident>& incidents() const {
    return supervisor_.incidents();
  }
  std::string FormatIncidents() const { return supervisor_.FormatIncidents(); }
  int recoveries() const { return supervisor_.recoveries(); }
  /// One structured report per incident (see GangSupervisor).
  const std::vector<obs::IncidentReport>& incident_reports() const {
    return supervisor_.incident_reports();
  }

  /// Mean loss over the last n recorded steps; 0 when no history.
  float RecentLoss(int64_t n = 50) const;

  /// Rank `rank`'s replica (all replicas are bit-identical after a
  /// successful Run). Valid after Run; null before the first epoch.
  const nn::Module* model(int rank = 0) const;

  /// The coordinator-side aggregator of every shipped telemetry unit
  /// (populated only when options.telemetry_every > 0).
  const obs::TelemetryAggregator& telemetry() const {
    return supervisor_.telemetry();
  }

 private:
  /// Runs each rank as a thread of this process (RankLauncher).
  class ThreadLauncher;

  std::vector<StepRecord> history_;  // written by rank 0's worker thread
  std::unique_ptr<ThreadLauncher> launcher_;
  GangSupervisor supervisor_;  // after launcher_: stops it on destruction
};

}  // namespace llm::train::dist

#endif  // TFMR_TRAIN_DIST_DIST_TRAINER_H_
