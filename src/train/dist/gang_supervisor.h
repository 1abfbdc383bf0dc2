// GangSupervisor: the one monitor -> fence -> respawn state machine behind
// data-parallel training, for worker threads and worker processes alike.
//
// A gang is world_size ranks that train one model in lockstep
// (worker_loop.h). The supervisor owns everything about a gang that does
// not depend on how a rank runs:
//   * the rendezvous substrate: the step-0 checkpoint, and the pick of the
//     newest checkpoint that validates (a torn or corrupt file is deleted
//     so an older good one takes over). Joining an epoch and recovering
//     from one are the same code path: load that checkpoint and run;
//   * the collective plane: one CommHub on either transport (in-process
//     ranks exchange through it; on sockets a SocketServer feeds it), with
//     the telemetry sink that feeds every shipped unit to one aggregator;
//   * detection: the launcher reports a rank that died or failed; the
//     supervisor itself sees a heartbeat counter flat past
//     heartbeat_timeout and a transport connection dirtily down past
//     disconnect_grace;
//   * the verdict: root-cause precedence (death, then stall, then failure,
//     then disconnect: a death or stall explains the collective failures
//     it cascades into), the recovery budget, the incident log, and one
//     obs::IncidentReport per incident.
//
// On an incident it fences the epoch (every collective of the old spawn
// generation fails with kCancelled), has the launcher stop every rank, and
// respawns the full world from the newest valid checkpoint. Replay from a
// checkpoint is bit-exact (same batches by step index, same moments,
// rank-ordered collectives), so a run that survives any number of
// incidents ends with exactly the weights of an unfaulted run.
//
// How a rank is started, observed and stopped is a RankLauncher's
// business: DistTrainer runs ranks as threads, ProcGroupCoordinator as
// forked dist_worker processes.
#ifndef TFMR_TRAIN_DIST_GANG_SUPERVISOR_H_
#define TFMR_TRAIN_DIST_GANG_SUPERVISOR_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/telemetry.h"
#include "train/dist/comm.h"
#include "train/dist/worker_loop.h"
#include "train/optimizer.h"
#include "util/status.h"

namespace llm::train::dist {

class SocketServer;

/// Which collective transport carries the workers' traffic.
enum class CommTransport {
  /// In-process CommHub: shared memory under a mutex. Zero copies, zero
  /// syscalls — the baseline every other transport must match bit-exactly.
  kThread,
  /// SocketComm against a SocketServer over a Unix-domain (or TCP)
  /// socket: the full wire stack — framing, CRCs, reconnects, epoch
  /// fencing — exercised even when workers happen to be threads.
  kSocket,
};

/// One distributed incident and how the supervisor responded.
struct DistIncident {
  int epoch = 0;
  int64_t step = 0;  // last step the offending rank reached
  int rank = -1;
  std::string kind;    // "worker-death", "worker-stall",
                       // "collective-failure", "checkpoint-write", ...
  std::string detail;
  std::string action;  // "respawn world from latest checkpoint", ...
};

/// One rank as its launcher sees it at one poll.
struct RankPoll {
  enum class State { kStarting, kRunning, kDone, kDead, kFailed };
  State state = State::kStarting;
  /// Last step the rank reached; -1 when the launcher cannot see it (a
  /// process's step lives in its own memory).
  int64_t step = -1;
  /// kDead and kFailed: the incident kind and what happened.
  std::string kind;
  std::string detail;
  /// A reaped process's exit code and terminating signal; -1 otherwise.
  int32_t exit_code = -1;
  int32_t term_signal = -1;
};

class GangSupervisor;

/// Starts, observes and stops a gang's ranks.
class RankLauncher {
 public:
  virtual ~RankLauncher() = default;
  /// Starts every rank of spawn generation `epoch` from `ckpt_path`, on
  /// `gang`'s transport (gang.server() when it has one, else gang.hub()).
  virtual util::Status Launch(GangSupervisor& gang, int64_t epoch,
                              const std::string& ckpt_path) = 0;
  /// `rank`'s state now. Called from the supervisor's thread only.
  virtual RankPoll Poll(int rank) = 0;
  /// Stops every rank and returns once none runs. The supervisor has
  /// already advanced gang.epoch() and aborted the transport, so a rank
  /// may stop on its own. Idempotent.
  virtual void StopAll() = 0;
};

struct GangOptions {
  int world_size = 2;
  std::string checkpoint_dir;
  /// The step-0 checkpoint: this factory's weights with all-zero AdamW
  /// moments. Must build the replica every rank builds.
  ModelFactory factory;
  AdamWOptions adamw;
  CommTransport transport = CommTransport::kThread;
  /// Socket transport: Unix socket path or "tcp://HOST:PORT"; empty =
  /// "<checkpoint_dir>/comm.sock".
  std::string socket_address;
  /// Bounds the wait for every rank's goodbye at the end of a run.
  std::chrono::milliseconds collective_timeout{2000};
  /// Detection thresholds, as in DistTrainerOptions.
  std::chrono::milliseconds heartbeat_timeout{10000};
  std::chrono::milliseconds disconnect_grace{400};
  std::chrono::milliseconds monitor_poll{2};
  int max_recoveries = 8;
  /// Where ranks dump crash postmortems; empty = they dump none.
  std::string postmortem_dir;
  /// Merged-timeline events attached to each IncidentReport.
  size_t incident_timeline_events = 24;
};

class GangSupervisor {
 public:
  /// `launcher` must outlive the supervisor.
  GangSupervisor(GangOptions options, RankLauncher* launcher);
  /// Fences the epoch, stops every rank, then stops the server.
  ~GangSupervisor();

  GangSupervisor(const GangSupervisor&) = delete;
  GangSupervisor& operator=(const GangSupervisor&) = delete;

  /// Runs the gang until every rank finishes, surviving up to
  /// max_recoveries incidents. Resumes from the checkpoint dir's newest
  /// valid checkpoint when there is one. Returns OK on completion;
  /// Internal when the recovery budget is exhausted (the message carries
  /// the incident log); or the IO error that kept the step-0 checkpoint,
  /// the server or a launch from starting.
  util::Status Run();

  /// The live spawn generation. A rank launched for another epoch is
  /// superseded and stops at its next step. Thread-safe.
  int64_t epoch() const { return epoch_.load(); }
  /// The collective plane: in-process ranks exchange through it, and the
  /// socket server feeds it.
  CommHub* hub() { return &hub_; }
  /// The socket server, started by Run; null on the in-process transport.
  const SocketServer* server() const { return server_.get(); }

  /// Logs a non-fatal incident (rank 0's failed checkpoint write).
  /// Thread-safe.
  void AddIncident(DistIncident incident);

  int recoveries() const { return recoveries_; }
  const std::vector<DistIncident>& incidents() const { return incidents_; }
  std::string FormatIncidents() const;
  /// One report per incident, filed after the respawn it triggered, so its
  /// merged timeline holds the victim's last events and the recovery.
  const std::vector<obs::IncidentReport>& incident_reports() const {
    return reports_;
  }
  /// Every shipped telemetry unit and harvested postmortem.
  const obs::TelemetryAggregator& telemetry() const { return telemetry_; }

 private:
  util::Status WriteInitialCheckpoint();
  util::Status PickCheckpoint(std::string* path);
  /// Returns true when the run is over (success or budget exhausted);
  /// false to respawn another epoch.
  bool Monitor(util::Status* verdict);
  /// Supersedes the epoch, fails its collectives, then stops every rank.
  void Fence();
  /// Ingests, archives and deletes every rank's postmortem file; marks
  /// `report` when the victim's dump was among them.
  void HarvestPostmortems(obs::IncidentReport* report);
  /// Splices the supervisor's flight delta into the gang timeline,
  /// attaches the merged window, emits the DIST_INCIDENT line, and files
  /// the report.
  void FinalizeReport(obs::IncidentReport report);

  const GangOptions options_;
  RankLauncher* const launcher_;
  std::atomic<int64_t> epoch_{0};
  int recoveries_ = 0;
  mutable std::mutex incidents_mu_;
  std::vector<DistIncident> incidents_;  // guarded by incidents_mu_
  std::vector<obs::IncidentReport> reports_;
  /// A recovered incident's report waits for the respawn.
  std::optional<obs::IncidentReport> pending_report_;
  /// Flight events before this ticket are not spliced into the gang
  /// timeline (already spliced, or older than the run).
  uint64_t shipped_ticket_ = 0;
  obs::TelemetryAggregator telemetry_;
  /// Declared after telemetry_, which its sink feeds.
  CommHub hub_;
  /// Declared after hub_: its reader threads deposit into it.
  std::unique_ptr<SocketServer> server_;
};

}  // namespace llm::train::dist

#endif  // TFMR_TRAIN_DIST_GANG_SUPERVISOR_H_
