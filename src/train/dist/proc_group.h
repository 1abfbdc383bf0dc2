// ProcGroupCoordinator: gang-scheduled distributed training over REAL
// worker processes.
//
// The thread-backed DistTrainer proves the recovery algebra; this runner
// proves it against the actual failure domain it models. Each rank is a
// forked+exec'd copy of a worker binary (examples/dist_worker) that
// connects back to the coordinator's SocketServer, runs the shared
// transport-agnostic worker loop, and exits with a meaningful code. A
// SIGKILL here is a real SIGKILL: no destructors, no goodbye frame, a
// half-written stream on the wire — exactly what the framing, fencing,
// and reconnect machinery exist for.
//
// Recovery is the GangSupervisor's (gang_supervisor.h), the same one
// DistTrainer runs over threads: on any incident (a worker dies by signal,
// exits nonzero, flatlines its heartbeats, or its transport connection
// stays dirtily down past the disconnect grace) it fences the epoch, the
// process launcher SIGKILLs and reaps every survivor, and the full world
// respawns from the newest checkpoint that validates. Replay is
// bit-exact, so a faulted run finishes with exactly the weights of an
// unfaulted one — dist_socket_test asserts this by loading the final
// checkpoints of both.
//
// Worker exit codes (the coordinator's side of the contract):
//   0  loop ran to max_steps
//   2  collective cancelled / fenced / timed out — respawn me
//   3  checkpoint load failed
//   4  bad arguments
#ifndef TFMR_TRAIN_DIST_PROC_GROUP_H_
#define TFMR_TRAIN_DIST_PROC_GROUP_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/telemetry.h"
#include "train/dist/gang_supervisor.h"
#include "train/dist/worker_loop.h"
#include "train/optimizer.h"
#include "util/status.h"

namespace llm::train::dist {

/// Worker exit codes; keep in sync with examples/dist_worker.
inline constexpr int kWorkerExitDone = 0;
inline constexpr int kWorkerExitCancelled = 2;
inline constexpr int kWorkerExitLoadFailure = 3;
inline constexpr int kWorkerExitBadArgs = 4;

struct ProcGroupOptions {
  int world_size = 2;
  int64_t max_steps = 20;
  int64_t checkpoint_every = 5;
  int keep_last_k = 2;
  std::string checkpoint_dir;
  /// Path to the dist_worker binary to fork+exec per rank.
  std::string worker_binary;
  /// Unix socket path or "tcp://HOST:PORT"; empty =
  /// "<checkpoint_dir>/comm.sock".
  std::string socket_address;
  uint64_t seed = 0x5eedULL;
  std::chrono::milliseconds collective_timeout{4000};
  std::chrono::milliseconds heartbeat_timeout{20000};
  /// See DistTrainerOptions::disconnect_grace.
  std::chrono::milliseconds disconnect_grace{500};
  std::chrono::milliseconds monitor_poll{10};
  int max_recoveries = 8;
  /// Extra argv entries appended to every worker (fault-arming flags:
  /// "--arm-fault=sock-drop@3", "--arm-fault=worker-kill@5", ...).
  std::vector<std::string> worker_extra_args;
  /// Workers ship a telemetry unit every N steps (plus a final one);
  /// 0 disables shipping (and with it postmortem harvesting has only
  /// files to go on).
  int64_t telemetry_every = 2;
  /// Directory workers dump crash postmortems into; empty =
  /// checkpoint_dir.
  std::string postmortem_dir;
  /// Merged-timeline events attached to each IncidentReport.
  size_t incident_timeline_events = 24;
};

class ProcGroupCoordinator {
 public:
  /// `factory`/`adamw` are used only to write the step-0 checkpoint; they
  /// MUST describe the same task the worker binary hardcodes (toy_task.h
  /// for the in-tree worker).
  ProcGroupCoordinator(ProcGroupOptions options, ModelFactory factory,
                       AdamWOptions adamw);
  ~ProcGroupCoordinator();

  ProcGroupCoordinator(const ProcGroupCoordinator&) = delete;
  ProcGroupCoordinator& operator=(const ProcGroupCoordinator&) = delete;

  /// Runs the gang to max_steps, surviving up to max_recoveries
  /// incidents.
  util::Status Run();

  /// SIGKILLs rank's live worker process (chaos hook for tests and the
  /// demo). False when the rank has no live process.
  bool KillRank(int rank);

  int recoveries() const { return supervisor_.recoveries(); }
  const std::vector<DistIncident>& incidents() const {
    return supervisor_.incidents();
  }
  std::string FormatIncidents() const { return supervisor_.FormatIncidents(); }

  /// One structured report per incident, finalized after the recovery it
  /// triggered (so the merged timeline interleaves the victim's last
  /// shipped events with the coordinator's detection + respawn events).
  const std::vector<obs::IncidentReport>& incident_reports() const {
    return supervisor_.incident_reports();
  }
  /// The gang aggregator: every shipped unit and harvested postmortem.
  const obs::TelemetryAggregator& telemetry() const {
    return supervisor_.telemetry();
  }

 private:
  /// Runs each rank as a fork+exec'd worker_binary (RankLauncher).
  class ProcessLauncher;

  std::unique_ptr<ProcessLauncher> launcher_;
  GangSupervisor supervisor_;  // after launcher_: stops it on destruction
};

}  // namespace llm::train::dist

#endif  // TFMR_TRAIN_DIST_PROC_GROUP_H_
