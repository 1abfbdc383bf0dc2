#include "train/dist/dist_trainer.h"

#include "train/dist/socket_transport.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "nn/module.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "train/checkpoint.h"
#include "util/check.h"
#include "util/fault.h"

namespace llm::train::dist {
namespace {

/// Step number encoded in a checkpoint path ("…/ckpt_000000042.tfmr" ->
/// 42); -1 when the name does not match.
int64_t StepFromCheckpointPath(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string name =
      slash == std::string::npos ? path : path.substr(slash + 1);
  if (name.rfind("ckpt_", 0) != 0) return -1;
  int64_t step = 0;
  bool any = false;
  for (size_t pos = 5; pos < name.size() && name[pos] >= '0' &&
                       name[pos] <= '9';
       ++pos) {
    step = step * 10 + (name[pos] - '0');
    any = true;
  }
  return any ? step : -1;
}

}  // namespace

DistTrainer::DistTrainer(const DistTrainerOptions& options,
                         ModelFactory model_factory, DistLossFn loss_fn)
    : options_(options),
      factory_(std::move(model_factory)),
      loss_fn_(std::move(loss_fn)) {
  LLM_CHECK_GE(options.world_size, 1);
  LLM_CHECK_GT(options.max_steps, 0);
  LLM_CHECK(!options.checkpoint_dir.empty())
      << "DistTrainer requires checkpoint_dir: the latest checkpoint is the "
         "rendezvous and recovery substrate";
  LLM_CHECK_GE(options.keep_last_k, 1);
  LLM_CHECK(factory_ != nullptr);
  LLM_CHECK(loss_fn_ != nullptr);
  hub_ = std::make_unique<CommHub>(options.world_size);
  hub_->SetTelemetrySink([this](int rank, const std::vector<uint8_t>& blob) {
    auto unit = obs::DecodeRankTelemetry(blob);
    // A corrupt unit costs one snapshot, never the run.
    if (unit.ok()) telemetry_.Ingest(unit.value(), blob.size());
    (void)rank;
  });
  workers_.reserve(static_cast<size_t>(options.world_size));
  for (int r = 0; r < options.world_size; ++r) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->rank = r;
  }
}

DistTrainer::~DistTrainer() {
  epoch_.fetch_add(1);
  AbortTransport();
  JoinAll();
  // The server's reader threads ingest into telemetry_, which is destroyed
  // before server_ is: join them while every member is still alive.
  if (server_) server_->Stop();
}

void DistTrainer::AbortTransport() {
  hub_->AbortAll();
  if (server_) server_->AbortEpoch();
}

int64_t DistTrainer::WorkerHeartbeats(int rank) const {
  return server_ ? server_->HeartbeatCount(rank)
                 : hub_->HeartbeatCount(rank);
}

void DistTrainer::JoinAll() {
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

const nn::Module* DistTrainer::model(int rank) const {
  return workers_[static_cast<size_t>(rank)]->model.get();
}

void DistTrainer::AddIncident(DistIncident incident) {
  std::lock_guard<std::mutex> lock(incidents_mu_);
  incidents_.push_back(std::move(incident));
}

std::string DistTrainer::FormatIncidents() const {
  std::lock_guard<std::mutex> lock(incidents_mu_);
  std::ostringstream os;
  for (const DistIncident& inc : incidents_) {
    os << "  epoch " << inc.epoch << " step " << inc.step << " rank "
       << inc.rank << " [" << inc.kind << "] " << inc.detail << " -> "
       << inc.action << "\n";
  }
  return os.str();
}

float DistTrainer::RecentLoss(int64_t n) const {
  if (history_.empty()) return 0.0f;
  const int64_t count =
      std::min<int64_t>(n, static_cast<int64_t>(history_.size()));
  if (count <= 0) return 0.0f;
  double sum = 0.0;
  for (int64_t i = 0; i < count; ++i) {
    sum += history_[history_.size() - 1 - static_cast<size_t>(i)].loss;
  }
  return static_cast<float>(sum / count);
}

util::Status DistTrainer::WriteInitialCheckpoint() {
  // A throwaway replica + plain AdamW yields the factory-fresh weights and
  // an all-zero full "adamw" moment state — the step-0 rendezvous point.
  std::unique_ptr<nn::Module> model = factory_();
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
  obs::FlightRecorder::Global().Record(
      obs::FlightEventType::kCheckpointSaved, 0, 0);
  return util::Status::OK();
}

util::Status DistTrainer::Run() {
  std::error_code ec;
  std::filesystem::create_directories(options_.checkpoint_dir, ec);
  if (ec) {
    return util::Status::IOError("cannot create checkpoint dir " +
                                 options_.checkpoint_dir + ": " +
                                 ec.message());
  }
  obs::WireFaultEventsToFlightRecorder();
  auto& registry = obs::MetricsRegistry::Global();
  obs::Gauge* g_epoch = registry.GetGauge("dist.epoch");
  obs::Gauge* g_recoveries = registry.GetGauge("dist.recoveries");

  if (!LatestCheckpoint(options_.checkpoint_dir).ok()) {
    LLM_RETURN_IF_ERROR(WriteInitialCheckpoint());
  }

  if (options_.transport == CommTransport::kSocket && !server_) {
    const std::string address = options_.socket_address.empty()
                                    ? options_.checkpoint_dir + "/comm.sock"
                                    : options_.socket_address;
    server_ = std::make_unique<SocketServer>(options_.world_size, address);
    LLM_RETURN_IF_ERROR(server_->Start());
    server_->SetTelemetrySink(
        [this](int rank, const std::vector<uint8_t>& blob) {
          auto unit = obs::DecodeRankTelemetry(blob);
          if (unit.ok()) telemetry_.Ingest(unit.value(), blob.size());
          (void)rank;
        });
  }

  while (true) {
    // Pick the newest checkpoint that fully validates; a corrupt or torn
    // file (e.g. a save that raced a kill) is discarded so an older good
    // one takes over.
    std::string ckpt;
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
        ckpt = latest.value();
        break;
      }
      std::fprintf(stderr, "[dist] discarding corrupt checkpoint %s: %s\n",
                   latest.value().c_str(), valid.ToString().c_str());
      std::remove(latest.value().c_str());
    }

    SpawnEpoch(ckpt);
    g_epoch->Set(static_cast<double>(epoch_.load()));
    g_recoveries->Set(static_cast<double>(recoveries_));
    util::Status verdict;
    if (MonitorEpoch(&verdict)) return verdict;
  }
}

void DistTrainer::SpawnEpoch(const std::string& ckpt_path) {
  hub_->Reset();
  const int epoch = epoch_.load();
  if (server_) server_->Reset(epoch);
  const int64_t resume = StepFromCheckpointPath(ckpt_path);
  if (epoch > 0) {
    obs::FlightRecorder::Global().Record(
        obs::FlightEventType::kDistRecovery, epoch, resume, recoveries_);
    std::fprintf(stderr,
                 "[dist] recovery %d: epoch %d respawning %d workers from "
                 "%s (step %lld)\n",
                 recoveries_, epoch, options_.world_size, ckpt_path.c_str(),
                 static_cast<long long>(resume));
  }
  // Replicas and shards are built serially here so worker threads never
  // race the user's model factory; the checkpoint load itself happens in
  // parallel on the worker threads.
  for (auto& w : workers_) {
    w->phase.store(static_cast<int>(Phase::kLoading));
    w->step_reached.store(resume);
    w->status = util::Status::OK();
    w->model = factory_();
    w->opt = std::make_unique<ShardedAdamW>(
        w->model->Parameters(), options_.adamw, w->rank,
        options_.world_size);
  }
  for (auto& w : workers_) {
    w->thread = std::thread([this, rank = w->rank, epoch, ckpt_path] {
      WorkerMain(rank, epoch, ckpt_path);
    });
  }
}

void DistTrainer::WorkerMain(int rank, int my_epoch,
                             const std::string& ckpt_path) {
  Worker& me = *workers_[static_cast<size_t>(rank)];
  const auto fail = [&](util::Status status, Phase phase) {
    me.status = std::move(status);
    me.phase.store(static_cast<int>(phase));
  };

  TrainState init;
  util::Status loaded = LoadCheckpoint(me.model.get(), ckpt_path, &init);
  if (loaded.ok() && (!init.has_trainer || !init.has_optimizer)) {
    loaded = util::Status::FailedPrecondition(
        "checkpoint lacks trainer/optimizer state: " + ckpt_path);
  }
  if (loaded.ok()) loaded = me.opt->ImportState(init.optimizer);
  if (!loaded.ok()) return fail(std::move(loaded), Phase::kFailed);

  const int64_t start_step = init.next_step;
  if (rank == 0) history_ = std::move(init.history);

  obs::FlightRecorder::Global().Record(obs::FlightEventType::kWorkerJoin,
                                       rank, my_epoch, start_step);
  me.phase.store(static_cast<int>(Phase::kRunning));

  // The step loop itself is transport-agnostic (worker_loop.h); all this
  // function decides is which Comm carries the collectives.
  std::unique_ptr<SocketComm> sock;
  Comm* comm = hub_.get();
  if (options_.transport == CommTransport::kSocket) {
    SocketCommOptions sock_options;
    sock_options.jitter_seed = options_.seed ^ 0x50c7e7ULL;
    sock = std::make_unique<SocketComm>(rank, options_.world_size,
                                        server_->bound_address(), my_epoch,
                                        sock_options);
    comm = sock.get();
  }

  WorkerLoopOptions loop;
  loop.rank = rank;
  loop.world_size = options_.world_size;
  loop.max_steps = options_.max_steps;
  loop.start_step = start_step;
  loop.clip_norm = options_.clip_norm;
  loop.schedule = options_.schedule;
  loop.base_lr = options_.adamw.lr;
  loop.seed = options_.seed;
  loop.collective_timeout = options_.collective_timeout;
  loop.checkpoint_every = options_.checkpoint_every;
  loop.checkpoint_dir = options_.checkpoint_dir;
  loop.keep_last_k = options_.keep_last_k;
  loop.straggle_ms = options_.straggle_ms;
  loop.epoch = my_epoch;
  loop.telemetry_every = options_.telemetry_every;
  // Thread workers share this process (both transports): ship only the
  // per-rank metric namespace and no flight events.
  loop.telemetry_whole_process = false;

  WorkerLoopResult result = RunWorkerLoop(
      *comm, *me.model, *me.opt, loss_fn_, loop,
      rank == 0 ? &history_ : nullptr, &me.step_reached,
      /*superseded=*/[this, my_epoch] { return epoch_.load() != my_epoch; },
      /*on_warning=*/
      [this, my_epoch, &me](const std::string& kind,
                            const std::string& detail) {
        AddIncident({my_epoch, me.step_reached.load(), 0, kind, detail,
                     "continue on last good checkpoint"});
      });
  if (result.killed) return fail(std::move(result.status), Phase::kDead);
  if (!result.status.ok()) {
    return fail(std::move(result.status), Phase::kFailed);
  }
  me.phase.store(static_cast<int>(Phase::kDone));
}

bool DistTrainer::MonitorEpoch(util::Status* verdict) {
  const int world = options_.world_size;
  const auto start = std::chrono::steady_clock::now();
  std::vector<int64_t> last_hb(static_cast<size_t>(world), -1);
  std::vector<std::chrono::steady_clock::time_point> last_beat(
      static_cast<size_t>(world), start);

  while (true) {
    std::this_thread::sleep_for(options_.monitor_poll);
    const auto now = std::chrono::steady_clock::now();
    int done = 0;
    std::vector<int> dead, stalled, failed;
    for (int r = 0; r < world; ++r) {
      Worker& w = *workers_[static_cast<size_t>(r)];
      const Phase phase = static_cast<Phase>(w.phase.load());
      if (phase == Phase::kDone) {
        ++done;
        continue;
      }
      if (phase == Phase::kDead) {
        dead.push_back(r);
        continue;
      }
      if (phase == Phase::kFailed) {
        failed.push_back(r);
        continue;
      }
      const int64_t hb = WorkerHeartbeats(r);
      if (hb != last_hb[static_cast<size_t>(r)]) {
        last_hb[static_cast<size_t>(r)] = hb;
        last_beat[static_cast<size_t>(r)] = now;
      } else if (phase == Phase::kRunning &&
                 now - last_beat[static_cast<size_t>(r)] >
                     options_.heartbeat_timeout) {
        stalled.push_back(r);
      }
    }

    // Blind-spot fix: a rank whose transport connection dirtily dropped
    // and stayed down past the grace period is fenced now, instead of
    // waiting for its heartbeat counter to flatline for heartbeat_timeout
    // or for a full collective timeout to cascade.
    std::vector<int> dropped;
    if (server_) {
      for (int r :
           server_->RanksDisconnectedOver(options_.disconnect_grace)) {
        if (static_cast<Phase>(
                workers_[static_cast<size_t>(r)]->phase.load()) ==
            Phase::kRunning) {
          dropped.push_back(r);
        }
      }
    }

    if (dead.empty() && stalled.empty() && failed.empty() &&
        dropped.empty()) {
      if (done == world) {
        JoinAll();
        // Every rank has sent its final telemetry unit and then its
        // goodbye; return once the server has handled them.
        if (server_) server_->AwaitAllFinished(options_.collective_timeout);
        *verdict = util::Status::OK();
        return true;
      }
      continue;
    }

    // Classify the incident by root cause: a death or stall explains the
    // collective failures it cascades into.
    DistIncident incident;
    incident.epoch = epoch_.load();
    if (!dead.empty()) {
      incident.rank = dead.front();
      incident.kind = "worker-death";
      incident.detail =
          workers_[static_cast<size_t>(incident.rank)]->status.ToString();
    } else if (!stalled.empty()) {
      incident.rank = stalled.front();
      incident.kind = "worker-stall";
      incident.detail =
          "heartbeat flat for > " +
          std::to_string(options_.heartbeat_timeout.count()) + "ms";
      for (int r : stalled) {
        obs::FlightRecorder::Global().Record(
            obs::FlightEventType::kWorkerDeath, r,
            workers_[static_cast<size_t>(r)]->step_reached.load(),
            /*reason=*/1);
      }
    } else if (!failed.empty()) {
      incident.rank = failed.front();
      incident.kind = "collective-failure";
      incident.detail =
          workers_[static_cast<size_t>(incident.rank)]->status.ToString();
    } else {
      incident.rank = dropped.front();
      incident.kind = "transport-disconnect";
      incident.detail =
          "transport connection down > " +
          std::to_string(options_.disconnect_grace.count()) + "ms";
      for (int r : dropped) {
        obs::FlightRecorder::Global().Record(
            obs::FlightEventType::kWorkerDeath, r,
            workers_[static_cast<size_t>(r)]->step_reached.load(),
            /*reason=*/2);
      }
    }
    incident.step =
        workers_[static_cast<size_t>(incident.rank)]->step_reached.load();

    if (recoveries_ >= options_.max_recoveries) {
      incident.action = "none (recovery budget exhausted)";
      AddIncident(std::move(incident));
      epoch_.fetch_add(1);
      AbortTransport();
      JoinAll();
      *verdict = util::Status::Internal(
          "distributed run failed after " + std::to_string(recoveries_) +
          " recoveries; incident log:\n" + FormatIncidents());
      return true;
    }
    ++recoveries_;
    incident.action = "respawn world from latest checkpoint";
    std::fprintf(stderr,
                 "[dist] epoch %d incident [%s] rank %d step %lld: %s\n",
                 incident.epoch, incident.kind.c_str(), incident.rank,
                 static_cast<long long>(incident.step),
                 incident.detail.c_str());
    AddIncident(std::move(incident));
    // Collapse the world: newer epoch number stops loop-top workers,
    // AbortAll wakes everyone blocked in a collective.
    epoch_.fetch_add(1);
    AbortTransport();
    JoinAll();
    return false;
  }
}

}  // namespace llm::train::dist
