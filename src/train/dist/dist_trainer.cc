#include "train/dist/dist_trainer.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include "nn/module.h"
#include "obs/flight_recorder.h"
#include "train/checkpoint.h"
#include "train/dist/sharded_adamw.h"
#include "train/dist/socket_transport.h"
#include "util/check.h"

namespace llm::train::dist {

using State = RankPoll::State;

class DistTrainer::ThreadLauncher final : public RankLauncher {
 public:
  ThreadLauncher(const DistTrainerOptions& options, ModelFactory factory,
                 DistLossFn loss_fn, std::vector<StepRecord>* history)
      : options_(options),
        factory_(std::move(factory)),
        loss_fn_(std::move(loss_fn)),
        history_(history) {
    LLM_CHECK_GT(options.max_steps, 0);
    LLM_CHECK_GE(options.keep_last_k, 1);
    LLM_CHECK(loss_fn_ != nullptr);
    for (int r = 0; r < options.world_size; ++r) {
      workers_.push_back(std::make_unique<Worker>());
      workers_.back()->rank = r;
    }
  }
  ~ThreadLauncher() override { StopAll(); }

  util::Status Launch(GangSupervisor& gang, int64_t epoch,
                      const std::string& ckpt_path) override {
    // Replicas and shards are built serially here so worker threads never
    // race the user's model factory; the checkpoint load itself happens in
    // parallel on the worker threads.
    for (auto& w : workers_) {
      w->state.store(State::kStarting);
      w->step_reached.store(-1);
      w->status = util::Status::OK();
      w->model = factory_();
      w->opt = std::make_unique<ShardedAdamW>(
          w->model->Parameters(), options_.adamw, w->rank,
          options_.world_size);
    }
    for (auto& w : workers_) {
      w->thread = std::thread([this, &gang, rank = w->rank, epoch, ckpt_path] {
        WorkerMain(gang, rank, epoch, ckpt_path);
      });
    }
    return util::Status::OK();
  }

  RankPoll Poll(int rank) override {
    const Worker& w = *workers_[static_cast<size_t>(rank)];
    RankPoll poll;
    poll.state = w.state.load();
    poll.step = w.step_reached.load();
    if (poll.state == State::kDead || poll.state == State::kFailed) {
      poll.kind = poll.state == State::kDead ? "worker-death"
                                             : "collective-failure";
      poll.detail = w.status.ToString();
    }
    return poll;
  }

  void StopAll() override {
    // The fenced epoch stops every worker at its next step or collective.
    for (auto& w : workers_) {
      if (w->thread.joinable()) w->thread.join();
    }
  }

  const nn::Module* model(int rank) const {
    return workers_[static_cast<size_t>(rank)]->model.get();
  }

 private:
  struct Worker {
    int rank = 0;
    std::unique_ptr<nn::Module> model;
    std::unique_ptr<ShardedAdamW> opt;
    std::thread thread;
    /// kDead: kWorkerKill fired and the thread exited mid-run. kFailed: a
    /// collective or the checkpoint load failed.
    std::atomic<State> state{State::kStarting};
    std::atomic<int64_t> step_reached{-1};
    util::Status status;  // written before the terminal state store
  };

  void WorkerMain(GangSupervisor& gang, int rank, int64_t epoch,
                  const std::string& ckpt_path) {
    Worker& me = *workers_[static_cast<size_t>(rank)];
    const auto fail = [&](util::Status status, State state) {
      me.status = std::move(status);
      me.state.store(state);
    };

    TrainState init;
    util::Status loaded = LoadCheckpoint(me.model.get(), ckpt_path, &init);
    if (loaded.ok() && (!init.has_trainer || !init.has_optimizer)) {
      loaded = util::Status::FailedPrecondition(
          "checkpoint lacks trainer/optimizer state: " + ckpt_path);
    }
    if (loaded.ok()) loaded = me.opt->ImportState(init.optimizer);
    if (!loaded.ok()) return fail(std::move(loaded), State::kFailed);

    const int64_t start_step = init.next_step;
    if (rank == 0) *history_ = std::move(init.history);
    me.step_reached.store(start_step);

    obs::FlightRecorder::Global().Record(obs::FlightEventType::kWorkerJoin,
                                         rank, epoch, start_step);
    me.state.store(State::kRunning);

    // The step loop itself is transport-agnostic (worker_loop.h); all this
    // function decides is which Comm carries the collectives.
    std::unique_ptr<SocketComm> sock;
    Comm* comm = gang.hub();
    if (const SocketServer* server = gang.server()) {
      sock = std::make_unique<SocketComm>(rank, options_.world_size,
                                          server->bound_address(), epoch);
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
    loop.epoch = epoch;
    loop.telemetry_every = options_.telemetry_every;
    // Thread workers share this process (both transports): ship only the
    // per-rank metric namespace and no flight events.
    loop.telemetry_whole_process = false;

    WorkerLoopResult result = RunWorkerLoop(
        *comm, *me.model, *me.opt, loss_fn_, loop,
        rank == 0 ? history_ : nullptr, &me.step_reached,
        /*superseded=*/[&gang, epoch] { return gang.epoch() != epoch; },
        /*on_warning=*/
        [&gang, epoch, &me](const std::string& kind,
                            const std::string& detail) {
          gang.AddIncident({static_cast<int>(epoch), me.step_reached.load(),
                            0, kind, detail,
                            "continue on last good checkpoint"});
        });
    if (result.killed) return fail(std::move(result.status), State::kDead);
    if (!result.status.ok()) {
      return fail(std::move(result.status), State::kFailed);
    }
    me.state.store(State::kDone);
  }

  const DistTrainerOptions options_;
  const ModelFactory factory_;
  const DistLossFn loss_fn_;
  std::vector<StepRecord>* const history_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

namespace {

GangOptions ThreadGangOptions(const DistTrainerOptions& o,
                              ModelFactory factory) {
  GangOptions gang;
  gang.world_size = o.world_size;
  gang.checkpoint_dir = o.checkpoint_dir;
  gang.factory = std::move(factory);
  gang.adamw = o.adamw;
  gang.transport = o.transport;
  gang.socket_address = o.socket_address;
  gang.collective_timeout = o.collective_timeout;
  gang.heartbeat_timeout = o.heartbeat_timeout;
  gang.disconnect_grace = o.disconnect_grace;
  gang.monitor_poll = o.monitor_poll;
  gang.max_recoveries = o.max_recoveries;
  return gang;
}

}  // namespace

DistTrainer::DistTrainer(const DistTrainerOptions& options,
                         ModelFactory model_factory, DistLossFn loss_fn)
    : launcher_(std::make_unique<ThreadLauncher>(options, model_factory,
                                                 std::move(loss_fn),
                                                 &history_)),
      supervisor_(ThreadGangOptions(options, std::move(model_factory)),
                  launcher_.get()) {}

DistTrainer::~DistTrainer() = default;

util::Status DistTrainer::Run() { return supervisor_.Run(); }

const nn::Module* DistTrainer::model(int rank) const {
  return launcher_->model(rank);
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

}  // namespace llm::train::dist
