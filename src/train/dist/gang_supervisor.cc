#include "train/dist/gang_supervisor.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <thread>
#include <utility>

#include "nn/module.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "train/checkpoint.h"
#include "train/dist/socket_transport.h"
#include "util/check.h"

namespace llm::train::dist {
namespace {

using obs::FlightEventType;
using obs::FlightRecorder;
using State = RankPoll::State;

/// Step number encoded in a checkpoint path ("…/ckpt_000000042.tfmr" ->
/// 42), as LatestCheckpoint names it.
int64_t StepFromCheckpointPath(const std::string& path) {
  return std::strtoll(path.c_str() + path.rfind("ckpt_") + 5, nullptr, 10);
}

/// CI hook: when TFMR_INCIDENT_DIR is set, DIST_INCIDENT lines and
/// harvested postmortems are archived there so a failing workflow can
/// upload them as artifacts after the run's scratch dirs are gone.
const char* IncidentArchiveDir() { return std::getenv("TFMR_INCIDENT_DIR"); }

}  // namespace

GangSupervisor::GangSupervisor(GangOptions options, RankLauncher* launcher)
    : options_(std::move(options)),
      launcher_(launcher),
      hub_(options_.world_size) {
  LLM_CHECK_GE(options_.world_size, 1);
  LLM_CHECK(!options_.checkpoint_dir.empty())
      << "a gang requires checkpoint_dir: the latest checkpoint is the "
         "rendezvous and recovery substrate";
  LLM_CHECK(options_.factory != nullptr);
  LLM_CHECK(launcher_ != nullptr);
}

GangSupervisor::~GangSupervisor() {
  Fence();
  // The server's reader threads feed the hub and, through its sink,
  // telemetry_: join them while both are alive.
  if (server_) server_->Stop();
}

void GangSupervisor::Fence() {
  // Superseded first: a rank between collectives stops at its next step
  // instead of dialing into the aborted epoch.
  epoch_.fetch_add(1);
  hub_.AbortAll();
  launcher_->StopAll();
}

void GangSupervisor::AddIncident(DistIncident incident) {
  std::lock_guard<std::mutex> lock(incidents_mu_);
  incidents_.push_back(std::move(incident));
}

std::string GangSupervisor::FormatIncidents() const {
  std::lock_guard<std::mutex> lock(incidents_mu_);
  std::ostringstream os;
  for (const DistIncident& inc : incidents_) {
    os << "  epoch " << inc.epoch << " step " << inc.step << " rank "
       << inc.rank << " [" << inc.kind << "] " << inc.detail << " -> "
       << inc.action << "\n";
  }
  return os.str();
}

util::Status GangSupervisor::WriteInitialCheckpoint() {
  // A throwaway replica + plain AdamW yields the factory-fresh weights and
  // an all-zero full "adamw" moment state — the step-0 rendezvous point.
  std::unique_ptr<nn::Module> model = options_.factory();
  AdamW opt(model->Parameters(), options_.adamw);
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

util::Status GangSupervisor::PickCheckpoint(std::string* path) {
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
    std::fprintf(stderr, "[dist] discarding corrupt checkpoint %s: %s\n",
                 latest.value().c_str(), valid.ToString().c_str());
    std::remove(latest.value().c_str());
  }
}

void GangSupervisor::HarvestPostmortems(obs::IncidentReport* report) {
  if (options_.postmortem_dir.empty()) return;
  for (int r = 0; r < options_.world_size; ++r) {
    const std::string path = obs::PostmortemPath(options_.postmortem_dir, r);
    auto unit = obs::ReadPostmortem(path);
    if (!unit.ok()) {
      if (unit.status().code() != util::StatusCode::kNotFound) {
        // A torn or corrupt last gasp: detected, reported, never trusted.
        std::fprintf(stderr, "[dist] discarding bad postmortem %s: %s\n",
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

void GangSupervisor::FinalizeReport(obs::IncidentReport report) {
  // The report's own marker event goes into the ring first, then the
  // supervisor's flight delta — detection, fence, recovery, respawn, and
  // the marker itself — is spliced into the gang timeline.
  FlightRecorder::Global().Record(FlightEventType::kIncidentReport,
                                  report.rank, report.epoch, report.recovery);
  std::vector<obs::FlightEvent> delta =
      FlightRecorder::Global().DumpSince(shipped_ticket_);
  if (!delta.empty()) shipped_ticket_ = delta.back().ticket + 1;
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

util::Status GangSupervisor::Run() {
  std::error_code ec;
  std::filesystem::create_directories(options_.checkpoint_dir, ec);
  if (ec) {
    return util::Status::IOError("cannot create checkpoint dir " +
                                 options_.checkpoint_dir + ": " +
                                 ec.message());
  }
  obs::WireFaultEventsToFlightRecorder();
  // Reports splice only this run's events into the gang timeline.
  shipped_ticket_ = FlightRecorder::Global().total_recorded();
  auto& registry = obs::MetricsRegistry::Global();
  obs::Gauge* g_epoch = registry.GetGauge("dist.epoch");
  obs::Gauge* g_recoveries = registry.GetGauge("dist.recoveries");

  if (!LatestCheckpoint(options_.checkpoint_dir).ok()) {
    LLM_RETURN_IF_ERROR(WriteInitialCheckpoint());
  }

  hub_.SetTelemetrySink([this](int /*rank*/,
                                const std::vector<uint8_t>& blob) {
    auto unit = obs::DecodeRankTelemetry(blob);
    // A corrupt unit costs one snapshot, never the run.
    if (unit.ok()) telemetry_.Ingest(unit.value(), blob.size());
  });
  if (options_.transport == CommTransport::kSocket && !server_) {
    const std::string address = options_.socket_address.empty()
                                    ? options_.checkpoint_dir + "/comm.sock"
                                    : options_.socket_address;
    server_ = std::make_unique<SocketServer>(&hub_, address);
    LLM_RETURN_IF_ERROR(server_->Start());
  }

  while (true) {
    std::string ckpt;
    LLM_RETURN_IF_ERROR(PickCheckpoint(&ckpt));
    const int64_t epoch = epoch_.load();
    // The server, if any, retires the old epoch's readers before the hub
    // clears, so no old-epoch frame reaches a new round.
    hub_.Reset(epoch);
    if (epoch > 0) {
      const int64_t resume = StepFromCheckpointPath(ckpt);
      FlightRecorder::Global().Record(FlightEventType::kDistRecovery,
                                      static_cast<int32_t>(epoch), resume,
                                      recoveries_);
      std::fprintf(stderr,
                   "[dist] recovery %d: epoch %lld respawning %d workers "
                   "from %s (step %lld)\n",
                   recoveries_, static_cast<long long>(epoch),
                   options_.world_size, ckpt.c_str(),
                   static_cast<long long>(resume));
    }
    LLM_RETURN_IF_ERROR(launcher_->Launch(*this, epoch, ckpt));
    g_epoch->Set(static_cast<double>(epoch));
    g_recoveries->Set(static_cast<double>(recoveries_));
    if (pending_report_) {
      // The respawn is done, so the previous incident's report can carry
      // the recovery in its timeline.
      FinalizeReport(std::move(*pending_report_));
      pending_report_.reset();
    }
    util::Status verdict;
    if (Monitor(&verdict)) return verdict;
  }
}

bool GangSupervisor::Monitor(util::Status* verdict) {
  const int world = options_.world_size;
  const auto start = std::chrono::steady_clock::now();
  std::vector<int64_t> last_hb(static_cast<size_t>(world), -1);
  std::vector<std::chrono::steady_clock::time_point> last_beat(
      static_cast<size_t>(world), start);
  std::vector<RankPoll> polls(static_cast<size_t>(world));

  while (true) {
    std::this_thread::sleep_for(options_.monitor_poll);
    const auto now = std::chrono::steady_clock::now();
    int done = 0;
    std::vector<int> dead, stalled, failed, dropped;
    for (int r = 0; r < world; ++r) {
      const size_t i = static_cast<size_t>(r);
      polls[i] = launcher_->Poll(r);
      const State state = polls[i].state;
      if (state == State::kDone) {
        ++done;
      } else if (state == State::kDead) {
        dead.push_back(r);
      } else if (state == State::kFailed) {
        failed.push_back(r);
      } else {
        const int64_t hb = hub_.HeartbeatCount(r);
        if (hb != last_hb[i]) {
          last_hb[i] = hb;
          last_beat[i] = now;
        } else if (state == State::kRunning &&
                   now - last_beat[i] > options_.heartbeat_timeout) {
          stalled.push_back(r);
        }
      }
    }
    // A running rank whose transport connection dirtily dropped and stayed
    // down past the grace is fenced now, long before its heartbeat
    // counter flatlines or a collective times out.
    if (server_) {
      for (int r : server_->RanksDisconnectedOver(options_.disconnect_grace)) {
        if (polls[static_cast<size_t>(r)].state == State::kRunning) {
          dropped.push_back(r);
        }
      }
    }

    if (dead.empty() && stalled.empty() && failed.empty() &&
        dropped.empty()) {
      if (done < world) continue;
      launcher_->StopAll();
      // Every rank sent its final telemetry unit and then its goodbye;
      // return once the server has handled them.
      if (server_) server_->AwaitAllFinished(options_.collective_timeout);
      *verdict = util::Status::OK();
      return true;
    }

    const auto step_of = [&](int r) {
      const int64_t step = polls[static_cast<size_t>(r)].step;
      return step >= 0 ? step : telemetry_.RankStep(r);
    };
    // Classify by root cause: a death or stall explains the collective
    // failures it cascades into.
    obs::IncidentReport report;
    report.epoch = epoch_.load();
    if (!dead.empty() || (stalled.empty() && !failed.empty())) {
      report.rank = dead.empty() ? failed[0] : dead[0];
      const RankPoll& poll = polls[static_cast<size_t>(report.rank)];
      report.kind = poll.kind;
      report.detail = poll.detail;
      report.exit_code = poll.exit_code;
      report.term_signal = poll.term_signal;
    } else {
      // Silent ranks: the supervisor, not the rank, saw them go.
      const bool stall = !stalled.empty();
      const std::vector<int>& silent = stall ? stalled : dropped;
      report.rank = silent[0];
      report.kind = stall ? "worker-stall" : "transport-disconnect";
      report.detail =
          stall ? "heartbeat flat for > " +
                      std::to_string(options_.heartbeat_timeout.count()) +
                      "ms"
                : "transport connection down > " +
                      std::to_string(options_.disconnect_grace.count()) +
                      "ms";
      for (int r : silent) {
        FlightRecorder::Global().Record(FlightEventType::kWorkerDeath, r,
                                        step_of(r),
                                        /*reason=*/stall ? 1 : 2);
      }
    }
    report.step = step_of(report.rank);

    const bool exhausted = recoveries_ >= options_.max_recoveries;
    if (!exhausted) ++recoveries_;
    report.recovery = recoveries_;
    report.action = exhausted ? "none (recovery budget exhausted)"
                              : "respawn world from latest checkpoint";
    std::fprintf(stderr,
                 "[dist] epoch %lld incident [%s] rank %d step %lld: %s\n",
                 static_cast<long long>(report.epoch), report.kind.c_str(),
                 report.rank, static_cast<long long>(report.step),
                 report.detail.c_str());
    AddIncident({static_cast<int>(report.epoch), report.step, report.rank,
                 report.kind, report.detail, report.action});
    // Collapse the world: every collective of this epoch fails, every rank
    // stops. A dying process's last-gasp dump is on disk by now.
    Fence();
    HarvestPostmortems(&report);
    if (exhausted) {
      FinalizeReport(std::move(report));
      *verdict = util::Status::Internal(
          "distributed run failed after " + std::to_string(recoveries_) +
          " recoveries; incident log:\n" + FormatIncidents());
      return true;
    }
    pending_report_ = std::move(report);
    return false;
  }
}

}  // namespace llm::train::dist
