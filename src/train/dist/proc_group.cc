#include "train/dist/proc_group.h"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <mutex>
#include <utility>

#include "obs/flight_recorder.h"
#include "train/dist/socket_transport.h"
#include "util/check.h"

namespace llm::train::dist {
namespace {

std::string DescribeExit(int wstatus) {
  if (WIFSIGNALED(wstatus)) {
    return "killed by signal " + std::to_string(WTERMSIG(wstatus));
  }
  if (WIFEXITED(wstatus)) {
    return "exited with code " + std::to_string(WEXITSTATUS(wstatus));
  }
  return "stopped with wstatus " + std::to_string(wstatus);
}

std::string PostmortemDir(const ProcGroupOptions& o) {
  return o.postmortem_dir.empty() ? o.checkpoint_dir : o.postmortem_dir;
}

}  // namespace

class ProcGroupCoordinator::ProcessLauncher final : public RankLauncher {
 public:
  ProcessLauncher(const ProcGroupOptions& options, std::string postmortem_dir)
      : options_(options), postmortem_dir_(std::move(postmortem_dir)) {
    LLM_CHECK_GE(options_.world_size, 1);
    LLM_CHECK(!options_.worker_binary.empty());
    pids_.assign(static_cast<size_t>(options_.world_size), -1);
    done_.assign(static_cast<size_t>(options_.world_size), false);
  }
  ~ProcessLauncher() override { StopAll(); }

  util::Status Launch(GangSupervisor& gang, int64_t epoch,
                      const std::string& ckpt_path) override {
    gang_ = &gang;
    for (int r = 0; r < options_.world_size; ++r) {
      // Argv is fully materialized BEFORE fork: the child must go straight
      // to execv without touching the allocator (fork duplicates only the
      // calling thread, so any lock another thread held stays locked
      // forever in the child).
      std::vector<std::string> args = {
          options_.worker_binary,
          "--rank=" + std::to_string(r),
          "--world=" + std::to_string(options_.world_size),
          "--address=" + gang.server()->bound_address(),
          "--epoch=" + std::to_string(epoch),
          "--ckpt=" + ckpt_path,
          "--ckpt-dir=" + options_.checkpoint_dir,
          "--max-steps=" + std::to_string(options_.max_steps),
          "--checkpoint-every=" + std::to_string(options_.checkpoint_every),
          "--keep-last-k=" + std::to_string(options_.keep_last_k),
          "--seed=" + std::to_string(options_.seed),
          "--collective-timeout-ms=" +
              std::to_string(options_.collective_timeout.count()),
          "--telemetry-every=" + std::to_string(options_.telemetry_every),
          "--postmortem=" + obs::PostmortemPath(postmortem_dir_, r),
      };
      for (const std::string& extra : options_.worker_extra_args) {
        args.push_back(extra);
      }
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);

      const pid_t pid = ::fork();
      if (pid < 0) {
        return util::Status::Internal("fork failed for rank " +
                                      std::to_string(r));
      }
      if (pid == 0) {
        ::execv(argv[0], argv.data());
        _exit(127);  // exec failed; async-signal-safe exit only
      }
      {
        std::lock_guard<std::mutex> lock(pids_mu_);
        pids_[static_cast<size_t>(r)] = pid;
        done_[static_cast<size_t>(r)] = false;
      }
      obs::FlightRecorder::Global().Record(obs::FlightEventType::kProcSpawn,
                                           r, static_cast<int64_t>(pid),
                                           epoch);
    }
    return util::Status::OK();
  }

  RankPoll Poll(int rank) override {
    RankPoll poll;
    int wstatus = 0;
    {
      std::lock_guard<std::mutex> lock(pids_mu_);
      pid_t& pid = pids_[static_cast<size_t>(rank)];
      if (done_[static_cast<size_t>(rank)]) {
        poll.state = RankPoll::State::kDone;
        return poll;
      }
      if (pid <= 0) return poll;  // not spawned
      if (::waitpid(pid, &wstatus, WNOHANG) != pid) {
        poll.state = RankPoll::State::kRunning;
        return poll;
      }
      pid = -1;
      if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == kWorkerExitDone) {
        done_[static_cast<size_t>(rank)] = true;
        poll.state = RankPoll::State::kDone;
        return poll;
      }
    }
    // A process's death is seen only from outside, so it is recorded here,
    // at the last step the rank shipped.
    obs::FlightRecorder::Global().Record(
        obs::FlightEventType::kWorkerDeath, rank,
        gang_->telemetry().RankStep(rank), /*reason=*/0);
    const bool signaled = WIFSIGNALED(wstatus);
    poll.state = signaled ? RankPoll::State::kDead : RankPoll::State::kFailed;
    poll.kind = signaled ? "worker-death" : "worker-exit";
    poll.detail = DescribeExit(wstatus);
    poll.exit_code = WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
    poll.term_signal = signaled ? WTERMSIG(wstatus) : -1;
    return poll;
  }

  void StopAll() override {
    std::vector<pid_t> live;
    {
      std::lock_guard<std::mutex> lock(pids_mu_);
      for (auto& pid : pids_) {
        if (pid > 0) {
          live.push_back(pid);
          pid = -1;
        }
      }
    }
    for (pid_t pid : live) ::kill(pid, SIGKILL);
    for (pid_t pid : live) ::waitpid(pid, nullptr, 0);
  }

  bool KillRank(int rank) {
    std::lock_guard<std::mutex> lock(pids_mu_);
    const pid_t pid = pids_[static_cast<size_t>(rank)];
    if (pid <= 0) return false;
    ::kill(pid, SIGKILL);
    return true;  // the supervisor's Poll reaps it and drives the recovery
  }

 private:
  const ProcGroupOptions options_;
  const std::string postmortem_dir_;
  const GangSupervisor* gang_ = nullptr;
  std::mutex pids_mu_;
  std::vector<pid_t> pids_;  // guarded by pids_mu_; -1 = reaped
  std::vector<bool> done_;   // guarded by pids_mu_
};

ProcGroupCoordinator::ProcGroupCoordinator(ProcGroupOptions options,
                                           ModelFactory factory,
                                           AdamWOptions adamw)
    : launcher_(
          std::make_unique<ProcessLauncher>(options, PostmortemDir(options))),
      supervisor_(
          {.world_size = options.world_size,
           .checkpoint_dir = options.checkpoint_dir,
           .factory = std::move(factory),
           .adamw = adamw,
           .transport = CommTransport::kSocket,
           .socket_address = options.socket_address,
           .collective_timeout = options.collective_timeout,
           .heartbeat_timeout = options.heartbeat_timeout,
           .disconnect_grace = options.disconnect_grace,
           .monitor_poll = options.monitor_poll,
           .max_recoveries = options.max_recoveries,
           .postmortem_dir = PostmortemDir(options),
           .incident_timeline_events = options.incident_timeline_events},
          launcher_.get()) {}

ProcGroupCoordinator::~ProcGroupCoordinator() = default;

util::Status ProcGroupCoordinator::Run() { return supervisor_.Run(); }

bool ProcGroupCoordinator::KillRank(int rank) {
  return launcher_->KillRank(rank);
}

}  // namespace llm::train::dist
