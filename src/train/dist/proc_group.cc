#include "train/dist/proc_group.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <utility>

#include "nn/module.h"
#include "obs/flight_recorder.h"
#include "train/checkpoint.h"
#include "util/check.h"

namespace llm::train::dist {
namespace {

using obs::FlightEventType;
using obs::FlightRecorder;

std::string DescribeExit(int wstatus) {
  if (WIFSIGNALED(wstatus)) {
    return "killed by signal " + std::to_string(WTERMSIG(wstatus));
  }
  if (WIFEXITED(wstatus)) {
    return "exited with code " + std::to_string(WEXITSTATUS(wstatus));
  }
  return "stopped with wstatus " + std::to_string(wstatus);
}

/// CI hook: when TFMR_INCIDENT_DIR is set, DIST_INCIDENT lines and
/// harvested postmortems are archived there so a failing workflow can
/// upload them as artifacts after the run's scratch dirs are gone.
const char* IncidentArchiveDir() { return std::getenv("TFMR_INCIDENT_DIR"); }

}  // namespace

ProcGroupCoordinator::ProcGroupCoordinator(ProcGroupOptions options,
                                           ModelFactory factory,
                                           AdamWOptions adamw)
    : options_(std::move(options)),
      factory_(std::move(factory)),
      adamw_(adamw) {
  LLM_CHECK_GE(options_.world_size, 1);
  LLM_CHECK(!options_.checkpoint_dir.empty());
  LLM_CHECK(!options_.worker_binary.empty());
  LLM_CHECK(factory_ != nullptr);
  pids_.assign(static_cast<size_t>(options_.world_size), -1);
  done_.assign(static_cast<size_t>(options_.world_size), false);
}

ProcGroupCoordinator::~ProcGroupCoordinator() {
  KillAllWorkers();
  if (server_) server_->Stop();
}

std::string ProcGroupCoordinator::FormatIncidents() const {
  std::ostringstream os;
  for (const DistIncident& inc : incidents_) {
    os << "  epoch " << inc.epoch << " rank " << inc.rank << " ["
       << inc.kind << "] " << inc.detail << " -> " << inc.action << "\n";
  }
  return os.str();
}

std::string ProcGroupCoordinator::PostmortemDir() const {
  return options_.postmortem_dir.empty() ? options_.checkpoint_dir
                                         : options_.postmortem_dir;
}

void ProcGroupCoordinator::HarvestPostmortems(obs::IncidentReport* report) {
  for (int r = 0; r < options_.world_size; ++r) {
    const std::string path = obs::PostmortemPath(PostmortemDir(), r);
    auto unit = obs::ReadPostmortem(path);
    if (!unit.ok()) {
      if (unit.status().code() != util::StatusCode::kNotFound) {
        // A torn or corrupt last gasp: detected, reported, never trusted.
        std::fprintf(stderr, "[dist-proc] discarding bad postmortem %s: %s\n",
                     path.c_str(), unit.status().ToString().c_str());
        std::remove(path.c_str());
      }
      continue;
    }
    telemetry_.Ingest(unit.value());
    if (r == report->rank) {
      report->postmortem_harvested = true;
      if (report->step < 0) report->step = unit.value().step;
    }
    if (const char* archive = IncidentArchiveDir()) {
      std::error_code ec;
      std::filesystem::create_directories(archive, ec);
      std::filesystem::copy_file(
          path,
          std::string(archive) + "/postmortem_e" +
              std::to_string(unit.value().epoch) + "_rank" +
              std::to_string(r) + ".tfmr",
          std::filesystem::copy_options::overwrite_existing, ec);
    }
    // Consume: a harvested dump must not masquerade as evidence for the
    // next incident.
    std::remove(path.c_str());
  }
}

void ProcGroupCoordinator::FinalizeReport(obs::IncidentReport report) {
  // The report's own marker event goes into the ring first, then the
  // coordinator's flight delta — detection, gang SIGKILL, recovery,
  // respawns, and the marker itself — is spliced into the gang timeline.
  FlightRecorder::Global().Record(FlightEventType::kIncidentReport,
                                  report.rank, report.epoch, report.recovery);
  std::vector<obs::FlightEvent> delta =
      FlightRecorder::Global().DumpSince(coord_shipped_ticket_);
  if (!delta.empty()) coord_shipped_ticket_ = delta.back().ticket + 1;
  telemetry_.IngestCoordinatorEvents(report.epoch, delta);
  report.timeline = telemetry_.Timeline(options_.incident_timeline_events);

  const std::string json = report.ToJson();
  std::fprintf(stderr, "DIST_INCIDENT %s\n", json.c_str());
  if (const char* archive = IncidentArchiveDir()) {
    std::error_code ec;
    std::filesystem::create_directories(archive, ec);
    if (std::FILE* f = std::fopen(
            (std::string(archive) + "/incidents.jsonl").c_str(), "a")) {
      std::fprintf(f, "%s\n", json.c_str());
      std::fclose(f);
    }
  }
  reports_.push_back(std::move(report));
}

util::Status ProcGroupCoordinator::WriteInitialCheckpoint() {
  std::unique_ptr<nn::Module> model = factory_();
  AdamW opt(model->Parameters(), adamw_);
  TrainState state;
  state.has_optimizer = true;
  state.optimizer = opt.ExportState();
  state.has_trainer = true;
  state.next_step = 0;
  state.lr_scale = 1.0f;
  const std::string path =
      options_.checkpoint_dir + "/" + CheckpointFileName(0);
  LLM_RETURN_IF_ERROR(SaveCheckpoint(*model, path, &state));
  FlightRecorder::Global().Record(FlightEventType::kCheckpointSaved, 0, 0);
  return util::Status::OK();
}

util::Status ProcGroupCoordinator::PickCheckpoint(std::string* path) {
  while (true) {
    auto latest = LatestCheckpoint(options_.checkpoint_dir);
    if (!latest.ok()) {
      return util::Status::Internal(
          "no loadable checkpoint to (re)start from: " +
          latest.status().ToString() + "; incident log:\n" +
          FormatIncidents());
    }
    util::Status valid = ValidateCheckpoint(latest.value());
    if (valid.ok()) {
      *path = latest.value();
      return util::Status::OK();
    }
    std::fprintf(stderr, "[dist-proc] discarding corrupt checkpoint %s: %s\n",
                 latest.value().c_str(), valid.ToString().c_str());
    std::remove(latest.value().c_str());
  }
}

util::Status ProcGroupCoordinator::SpawnWorkers(const std::string& ckpt_path,
                                                int64_t epoch) {
  for (int r = 0; r < options_.world_size; ++r) {
    // Argv is fully materialized BEFORE fork: the child must go straight
    // to execv without touching the allocator (fork duplicates only the
    // calling thread, so any lock another thread held stays locked
    // forever in the child).
    std::vector<std::string> args = {
        options_.worker_binary,
        "--rank=" + std::to_string(r),
        "--world=" + std::to_string(options_.world_size),
        "--address=" + server_->bound_address(),
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
        "--postmortem=" + obs::PostmortemPath(PostmortemDir(), r),
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
    FlightRecorder::Global().Record(FlightEventType::kProcSpawn, r,
                                    static_cast<int64_t>(pid), epoch);
  }
  return util::Status::OK();
}

void ProcGroupCoordinator::KillAllWorkers() {
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

bool ProcGroupCoordinator::KillRank(int rank) {
  std::lock_guard<std::mutex> lock(pids_mu_);
  const pid_t pid = pids_[static_cast<size_t>(rank)];
  if (pid <= 0) return false;
  ::kill(pid, SIGKILL);
  return true;  // the monitor reaps it and drives the recovery
}

bool ProcGroupCoordinator::MonitorGang(util::Status* verdict,
                                       int64_t epoch) {
  const int world = options_.world_size;
  const auto start = std::chrono::steady_clock::now();
  std::vector<int64_t> last_hb(static_cast<size_t>(world), -1);
  std::vector<std::chrono::steady_clock::time_point> last_beat(
      static_cast<size_t>(world), start);

  while (true) {
    std::this_thread::sleep_for(options_.monitor_poll);
    const auto now = std::chrono::steady_clock::now();

    DistIncident incident;
    incident.epoch = static_cast<int>(epoch);
    incident.step = -1;  // a process's step lives in its own memory
    obs::IncidentReport report;
    report.epoch = epoch;
    bool have_incident = false;
    int done = 0;

    {
      std::lock_guard<std::mutex> lock(pids_mu_);
      for (int r = 0; r < world; ++r) {
        pid_t& pid = pids_[static_cast<size_t>(r)];
        if (done_[static_cast<size_t>(r)]) {
          ++done;
          continue;
        }
        if (pid <= 0) continue;
        int wstatus = 0;
        const pid_t reaped = ::waitpid(pid, &wstatus, WNOHANG);
        if (reaped != pid) continue;
        pid = -1;
        if (WIFEXITED(wstatus) &&
            WEXITSTATUS(wstatus) == kWorkerExitDone) {
          done_[static_cast<size_t>(r)] = true;
          ++done;
          continue;
        }
        if (!have_incident) {
          have_incident = true;
          incident.rank = r;
          incident.kind =
              WIFSIGNALED(wstatus) ? "worker-death" : "worker-exit";
          incident.detail = DescribeExit(wstatus);
          report.exit_code =
              WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
          report.term_signal =
              WIFSIGNALED(wstatus) ? WTERMSIG(wstatus) : -1;
          FlightRecorder::Global().Record(FlightEventType::kWorkerDeath, r,
                                          server_->HeartbeatCount(r),
                                          /*reason=*/0);
        }
      }
    }

    if (!have_incident) {
      // Silent stall: the process is alive but its heartbeat frames
      // stopped arriving.
      for (int r = 0; r < world && !have_incident; ++r) {
        bool live;
        {
          std::lock_guard<std::mutex> lock(pids_mu_);
          live = pids_[static_cast<size_t>(r)] > 0 &&
                 !done_[static_cast<size_t>(r)];
        }
        if (!live) continue;
        const int64_t hb = server_->HeartbeatCount(r);
        if (hb != last_hb[static_cast<size_t>(r)]) {
          last_hb[static_cast<size_t>(r)] = hb;
          last_beat[static_cast<size_t>(r)] = now;
        } else if (now - last_beat[static_cast<size_t>(r)] >
                   options_.heartbeat_timeout) {
          have_incident = true;
          incident.rank = r;
          incident.kind = "worker-stall";
          incident.detail =
              "heartbeat flat for > " +
              std::to_string(options_.heartbeat_timeout.count()) + "ms";
          FlightRecorder::Global().Record(FlightEventType::kWorkerDeath, r,
                                          hb, /*reason=*/1);
        }
      }
    }

    if (!have_incident) {
      // Blind-spot fast path: a live, unfinished rank whose transport
      // connection has been dirtily down past the grace period.
      for (int r : server_->RanksDisconnectedOver(options_.disconnect_grace)) {
        bool live;
        {
          std::lock_guard<std::mutex> lock(pids_mu_);
          live = pids_[static_cast<size_t>(r)] > 0 &&
                 !done_[static_cast<size_t>(r)];
        }
        if (!live) continue;
        have_incident = true;
        incident.rank = r;
        incident.kind = "transport-disconnect";
        incident.detail =
            "transport connection down > " +
            std::to_string(options_.disconnect_grace.count()) + "ms";
        FlightRecorder::Global().Record(FlightEventType::kWorkerDeath, r,
                                        server_->HeartbeatCount(r),
                                        /*reason=*/2);
        break;
      }
    }

    if (!have_incident) {
      if (done == world) {
        // A worker exits right after its goodbye; its final telemetry
        // unit and the goodbye may still be in the server's reader.
        server_->AwaitAllFinished(options_.collective_timeout);
        *verdict = util::Status::OK();
        return true;
      }
      continue;
    }

    report.rank = incident.rank;
    report.kind = incident.kind;
    report.detail = incident.detail;
    report.step = telemetry_.RankStep(incident.rank);

    if (recoveries_ >= options_.max_recoveries) {
      incident.action = "none (recovery budget exhausted)";
      incidents_.push_back(incident);
      KillAllWorkers();
      // Terminal: no respawn to wait for — harvest and finalize now.
      report.action = incident.action;
      report.recovery = recoveries_;
      HarvestPostmortems(&report);
      FinalizeReport(std::move(report));
      *verdict = util::Status::Internal(
          "proc-group run failed after " + std::to_string(recoveries_) +
          " recoveries; incident log:\n" + FormatIncidents());
      return true;
    }
    ++recoveries_;
    incident.action = "SIGKILL gang, respawn from latest checkpoint";
    std::fprintf(stderr, "[dist-proc] epoch %lld incident [%s] rank %d: %s\n",
                 static_cast<long long>(epoch), incident.kind.c_str(),
                 incident.rank, incident.detail.c_str());
    report.action = incident.action;
    report.recovery = recoveries_;
    incidents_.push_back(std::move(incident));
    KillAllWorkers();
    // Harvest now — the victim's last-gasp dump is on disk — but finalize
    // only after Run() has respawned the gang, so the report's merged
    // timeline interleaves the victim's final events with the
    // coordinator's detection, recovery, and respawn events.
    HarvestPostmortems(&report);
    pending_ = std::move(report);
    pending_report_ = true;
    return false;
  }
}

util::Status ProcGroupCoordinator::Run() {
  std::error_code ec;
  std::filesystem::create_directories(options_.checkpoint_dir, ec);
  if (ec) {
    return util::Status::IOError("cannot create checkpoint dir " +
                                 options_.checkpoint_dir + ": " +
                                 ec.message());
  }
  if (!LatestCheckpoint(options_.checkpoint_dir).ok()) {
    LLM_RETURN_IF_ERROR(WriteInitialCheckpoint());
  }
  if (!server_) {
    const std::string address = options_.socket_address.empty()
                                    ? options_.checkpoint_dir + "/comm.sock"
                                    : options_.socket_address;
    server_ = std::make_unique<SocketServer>(options_.world_size, address);
    LLM_RETURN_IF_ERROR(server_->Start());
    server_->SetTelemetrySink(
        [this](int rank, const std::vector<uint8_t>& blob) {
          auto unit = obs::DecodeRankTelemetry(blob);
          // A corrupt unit costs one snapshot, never the run.
          if (unit.ok()) telemetry_.Ingest(unit.value(), blob.size());
          (void)rank;
        });
  }

  int64_t epoch = 0;
  while (true) {
    std::string ckpt;
    LLM_RETURN_IF_ERROR(PickCheckpoint(&ckpt));
    server_->Reset(epoch);
    if (epoch > 0) {
      FlightRecorder::Global().Record(FlightEventType::kDistRecovery,
                                      static_cast<int32_t>(epoch),
                                      /*resume_step=*/-1, recoveries_);
      std::fprintf(stderr,
                   "[dist-proc] recovery %d: epoch %lld respawning %d "
                   "workers from %s\n",
                   recoveries_, static_cast<long long>(epoch),
                   options_.world_size, ckpt.c_str());
    }
    LLM_RETURN_IF_ERROR(SpawnWorkers(ckpt, epoch));
    if (pending_report_) {
      // The respawn is done: the coordinator's kDistRecovery + kProcSpawn
      // events exist, so the previous incident's report can carry them.
      pending_report_ = false;
      FinalizeReport(std::move(pending_));
      pending_ = obs::IncidentReport{};
    }
    util::Status verdict;
    if (MonitorGang(&verdict, epoch)) return verdict;
    ++epoch;
  }
}

}  // namespace llm::train::dist
