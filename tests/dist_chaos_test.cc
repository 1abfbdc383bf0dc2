// Randomized fault-schedule harness for the data-parallel training
// runtime: seeded storms of worker kills, dropped and corrupted collective
// contributions, and stragglers, injected into full DistTrainer runs.
//
// The contract under test is total: every schedule must COMPLETE (the
// recovery machinery never wedges or gives up under a realistic fault
// rate), and because checkpoint replay is bit-exact — step-indexed
// batches, deterministic rank-ordered collectives, moments restored from
// the same v2 checkpoint — every faulted run must finish with weights and
// loss curve IDENTICAL to the unfaulted run of the same configuration.
// Faults may cost epochs; they may never cost correctness.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "nn/layers.h"
#include "obs/flight_recorder.h"
#include "obs/telemetry.h"
#include "train/checkpoint.h"
#include "train/dist/dist_trainer.h"
#include "train/dist/proc_group.h"
#include "train/dist/toy_task.h"
#include "util/fault.h"
#include "util/rng.h"

namespace llm::train::dist {
namespace {

namespace fs = std::filesystem;
using util::FaultInjector;
using util::FaultSite;
using std::chrono::milliseconds;

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_((fs::temp_directory_path() / name).string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

constexpr int kIn = 4, kHidden = 8, kOut = 2;
constexpr int kGlobalBatch = 6;  // divisible by both world sizes below
constexpr uint64_t kDataSeed = 0xC4405ull;
constexpr int64_t kSteps = 10;

std::unique_ptr<nn::Module> MakeReplica() {
  util::Rng rng(17);
  return std::make_unique<nn::Mlp>(kIn, kHidden, kOut, &rng);
}

DistLossFn MakeDistLoss() {
  return [](nn::Module& model, const StepContext& ctx) {
    util::Rng rng(kDataSeed + 0x9E3779B97F4A7C15ull *
                                  (static_cast<uint64_t>(ctx.step) + 1));
    core::Tensor full =
        core::Tensor::RandomNormal({kGlobalBatch, kIn}, &rng);
    const int rows = kGlobalBatch / ctx.world_size;
    core::Tensor shard({rows, kIn});
    for (int i = 0; i < rows; ++i) {
      for (int j = 0; j < kIn; ++j) {
        shard[i * kIn + j] = full[(ctx.rank * rows + i) * kIn + j];
      }
    }
    core::Variable x(shard, false);
    core::Variable y = static_cast<nn::Mlp&>(model).Forward(x);
    return core::SumAll(core::Mul(y, y));
  };
}

DistTrainerOptions ChaosOptions(int world, const std::string& dir) {
  DistTrainerOptions o;
  o.world_size = world;
  o.max_steps = kSteps;
  o.adamw.lr = 1e-2f;
  o.checkpoint_dir = dir;
  o.checkpoint_every = 2;
  o.keep_last_k = 2;
  // Tight timeouts keep a drop/straggle incident cheap (~250ms), so a
  // storm of them stays inside the test budget.
  o.collective_timeout = milliseconds(250);
  o.heartbeat_timeout = milliseconds(3000);
  o.monitor_poll = milliseconds(2);
  // Recovery replays at most kSteps cheap steps, so a generous budget is
  // bounded wall-clock; schedules average only a handful of incidents.
  o.max_recoveries = 40;
  return o;
}

float MaxParamDiff(const nn::Module& a, const nn::Module& b) {
  auto pa = a.NamedParameters();
  auto pb = b.NamedParameters();
  EXPECT_EQ(pa.size(), pb.size());
  float worst = 0.0f;
  for (size_t i = 0; i < pa.size(); ++i) {
    worst = std::max(worst, core::Tensor::MaxAbsDiff(pa[i].second.value(),
                                                     pb[i].second.value()));
  }
  return worst;
}

// The storm's schedule runs unchanged on each transport: the comm-* sites
// fire in the hub's deposit, which both carriers share.
class DistChaosStormTest : public ::testing::TestWithParam<CommTransport> {};

std::string TransportName(CommTransport transport) {
  return transport == CommTransport::kThread ? "thread" : "socket";
}

TEST_P(DistChaosStormTest, SeededFaultStormsAlwaysRecoverToTheExactResult) {
  constexpr int kSchedules = 26;
  const int worlds[] = {2, 3};
  const CommTransport transport = GetParam();
  const std::string tag = TransportName(transport);

  // Unfaulted reference run per world size on this transport: the ground
  // truth every faulted schedule must reproduce exactly.
  std::map<int, std::unique_ptr<DistTrainer>> reference;
  std::vector<std::unique_ptr<ScratchDir>> ref_dirs;
  for (int world : worlds) {
    ref_dirs.push_back(std::make_unique<ScratchDir>(
        "tfmr_chaos_ref_" + tag + "_w" + std::to_string(world)));
    DistTrainerOptions ref_opts =
        ChaosOptions(world, ref_dirs.back()->path());
    ref_opts.transport = transport;
    reference[world] = std::make_unique<DistTrainer>(
        ref_opts, MakeReplica, MakeDistLoss());
    ASSERT_TRUE(reference[world]->Run().ok());
    ASSERT_EQ(reference[world]->history().size(),
              static_cast<size_t>(kSteps));
  }

  int total_recoveries = 0;
  int64_t total_kills = 0, total_drops = 0, total_corrupt = 0,
          total_straggles = 0;
  for (int schedule = 0; schedule < kSchedules; ++schedule) {
    SCOPED_TRACE("schedule " + std::to_string(schedule));
    const int world = worlds[schedule % 2];
    ScratchDir dir("tfmr_chaos_" + tag + "_s" + std::to_string(schedule));
    DistTrainerOptions opts = ChaosOptions(world, dir.path());
    opts.transport = transport;
    // A third of the schedules use a straggle that exceeds the collective
    // timeout (a de-facto stall); the rest a benign slowdown.
    opts.straggle_ms = (schedule % 3 == 0) ? 400 : 30;

    const uint64_t seed = 0xC0FFEEull + static_cast<uint64_t>(schedule);
    FaultInjector::Global().ArmRandom(FaultSite::kWorkerKill, 0.015,
                                      seed * 4 + 0);
    FaultInjector::Global().ArmRandom(FaultSite::kCommDrop, 0.008,
                                      seed * 4 + 1);
    FaultInjector::Global().ArmRandom(FaultSite::kCommCorrupt, 0.008,
                                      seed * 4 + 2);
    FaultInjector::Global().ArmRandom(FaultSite::kWorkerStraggle, 0.02,
                                      seed * 4 + 3);

    obs::FlightRecorder::Global().Clear();
    DistTrainer dist(opts, MakeReplica, MakeDistLoss());
    util::Status s = dist.Run();
    const auto counts = FaultInjector::Global().AllCounts();
    FaultInjector::Global().Disarm();
    ASSERT_TRUE(s.ok()) << s;

    // Exactness: the faulted run ends bit-identical to the unfaulted one.
    const DistTrainer& ref = *reference[world];
    EXPECT_EQ(MaxParamDiff(*ref.model(0), *dist.model(0)), 0.0f);
    EXPECT_EQ(MaxParamDiff(*dist.model(0), *dist.model(world - 1)), 0.0f);
    ASSERT_EQ(dist.history().size(), ref.history().size());
    for (size_t i = 0; i < ref.history().size(); ++i) {
      EXPECT_EQ(dist.history()[i].loss, ref.history()[i].loss)
          << "step " << i;
    }

    // Every observed worker death must be followed by a checkpoint-based
    // recovery in the flight recorder.
    const auto events = obs::FlightRecorder::Global().Dump();
    for (size_t i = 0; i < events.size(); ++i) {
      if (events[i].type != obs::FlightEventType::kWorkerDeath) continue;
      bool recovered = false;
      for (size_t j = i + 1; j < events.size(); ++j) {
        if (events[j].type == obs::FlightEventType::kDistRecovery) {
          recovered = true;
          break;
        }
      }
      EXPECT_TRUE(recovered)
          << "death without subsequent recovery:\n"
          << obs::FlightRecorder::Global().Format(64);
    }
    // Fired kills and recoveries line up: a kill is never absorbed
    // silently (several faults in one epoch may share one recovery).
    const auto& kills = counts[static_cast<size_t>(FaultSite::kWorkerKill)];
    if (kills.fired > 0) {
      EXPECT_GE(dist.recoveries(), 1) << "kills fired: " << kills.fired;
    }
    // Incident-report conservation: every incident recovered, and each
    // filed exactly one structured report.
    EXPECT_EQ(dist.incident_reports().size(),
              static_cast<size_t>(dist.recoveries()))
        << dist.FormatIncidents();
    total_recoveries += dist.recoveries();
    total_kills += kills.fired;
    total_drops += counts[static_cast<size_t>(FaultSite::kCommDrop)].fired;
    total_corrupt +=
        counts[static_cast<size_t>(FaultSite::kCommCorrupt)].fired;
    total_straggles +=
        counts[static_cast<size_t>(FaultSite::kWorkerStraggle)].fired;
  }

  // The storm must actually have stormed: across all schedules every
  // fault class fired and recoveries happened. (Rates are seeded, so this
  // is deterministic up to thread scheduling of *which* rank draws each
  // occurrence, never of the totals' order of magnitude.)
  EXPECT_GT(total_kills, 0);
  EXPECT_GT(total_drops, 0);
  EXPECT_GT(total_corrupt, 0);
  EXPECT_GT(total_straggles, 0);
  EXPECT_GT(total_recoveries, 0);
  std::printf(
      "[dist-chaos/storm-%s] %d schedules: %lld kills, %lld drops, "
      "%lld corrupt, %lld straggles, %d recoveries\n",
      tag.c_str(), kSchedules, static_cast<long long>(total_kills),
      static_cast<long long>(total_drops),
      static_cast<long long>(total_corrupt),
      static_cast<long long>(total_straggles), total_recoveries);
}

INSTANTIATE_TEST_SUITE_P(
    Transports, DistChaosStormTest,
    ::testing::Values(CommTransport::kThread, CommTransport::kSocket),
    [](const ::testing::TestParamInfo<CommTransport>& info) {
      return TransportName(info.param);
    });

// The same contract over the socket transport, under wire-level faults:
// dropped frames, payloads corrupted after the CRC was taken, stalled
// writes that blow the collective deadline, and connections torn down
// mid-send. Some of these are absorbed silently (a disconnect reconnects
// within the deadline; the hub's result cache answers re-asks), some
// cost a recovery epoch — none may cost correctness.
TEST(DistChaosTest, SocketWireFaultStormsRecoverToTheExactResult) {
  constexpr int kSchedules = 16;
  const int worlds[] = {2, 3};

  std::map<int, std::unique_ptr<DistTrainer>> reference;
  std::vector<std::unique_ptr<ScratchDir>> ref_dirs;
  for (int world : worlds) {
    ref_dirs.push_back(std::make_unique<ScratchDir>(
        "tfmr_sockchaos_ref_w" + std::to_string(world)));
    reference[world] = std::make_unique<DistTrainer>(
        ChaosOptions(world, ref_dirs.back()->path()), MakeReplica,
        MakeDistLoss());
    ASSERT_TRUE(reference[world]->Run().ok());
  }

  int total_recoveries = 0;
  bool telemetry_ranks_seen[3] = {false, false, false};
  int64_t fired[4] = {0, 0, 0, 0};
  const FaultSite sites[4] = {FaultSite::kSockDrop,
                              FaultSite::kSockCorruptFrame,
                              FaultSite::kSockStallWrite,
                              FaultSite::kSockDisconnect};
  for (int schedule = 0; schedule < kSchedules; ++schedule) {
    SCOPED_TRACE("socket schedule " + std::to_string(schedule));
    const int world = worlds[schedule % 2];
    ScratchDir dir("tfmr_sockchaos_s" + std::to_string(schedule));
    DistTrainerOptions opts = ChaosOptions(world, dir.path());
    opts.transport = CommTransport::kSocket;
    // Telemetry rides the same faulted wire; the reference ran with the
    // plane off, so the exactness checks below also prove shipping never
    // perturbs training — even under storms.
    opts.telemetry_every = 3;
    // A stalled write sleeps 400ms — past the 250ms collective deadline —
    // so every fired stall is a real partition, not a benign slowdown.
    const uint64_t seed = 0x5eedC0DEull + static_cast<uint64_t>(schedule);
    // Frame traffic is ~15x denser than step-level fault sites (every
    // heartbeat, contribution, result, and ack is a send), so per-send
    // probabilities sit well below the step-level storm's.
    FaultInjector::Global().ArmRandom(sites[0], 0.004, seed * 8 + 0);
    FaultInjector::Global().ArmRandom(sites[1], 0.004, seed * 8 + 1);
    FaultInjector::Global().ArmRandom(sites[2], 0.002, seed * 8 + 2);
    FaultInjector::Global().ArmRandom(sites[3], 0.010, seed * 8 + 3);

    obs::FlightRecorder::Global().Clear();
    DistTrainer dist(opts, MakeReplica, MakeDistLoss());
    util::Status s = dist.Run();
    const auto counts = FaultInjector::Global().AllCounts();
    FaultInjector::Global().Disarm();
    ASSERT_TRUE(s.ok()) << s << "\n" << dist.FormatIncidents();

    const DistTrainer& ref = *reference[world];
    EXPECT_EQ(MaxParamDiff(*ref.model(0), *dist.model(0)), 0.0f);
    EXPECT_EQ(MaxParamDiff(*dist.model(0), *dist.model(world - 1)), 0.0f);
    ASSERT_EQ(dist.history().size(), ref.history().size());
    for (size_t i = 0; i < ref.history().size(); ++i) {
      EXPECT_EQ(dist.history()[i].loss, ref.history()[i].loss)
          << "step " << i;
    }
    // A worker death observed through the wire must still be followed by
    // a checkpoint recovery.
    const auto events = obs::FlightRecorder::Global().Dump();
    for (size_t i = 0; i < events.size(); ++i) {
      if (events[i].type != obs::FlightEventType::kWorkerDeath) continue;
      bool recovered = false;
      for (size_t j = i + 1; j < events.size(); ++j) {
        if (events[j].type == obs::FlightEventType::kDistRecovery) {
          recovered = true;
          break;
        }
      }
      EXPECT_TRUE(recovered) << obs::FlightRecorder::Global().Format(64);
    }
    // Telemetry is best-effort under faults (ships drop, never retry),
    // but a schedule in which *no* unit ever arrived would mean the
    // plane is dead, not lossy.
    int64_t ingested = 0;
    for (int r = 0; r < world; ++r) {
      ingested += dist.telemetry().IngestCount(r);
      if (dist.telemetry().HasRank(r)) telemetry_ranks_seen[r] = true;
    }
    EXPECT_GT(ingested, 0) << "no telemetry survived the storm";
    EXPECT_EQ(dist.incident_reports().size(),
              static_cast<size_t>(dist.recoveries()))
        << dist.FormatIncidents();
    total_recoveries += dist.recoveries();
    for (int i = 0; i < 4; ++i) {
      fired[i] += counts[static_cast<size_t>(sites[i])].fired;
    }
  }
  // Across the whole storm every rank id shipped successfully at least
  // once.
  for (int r = 0; r < 3; ++r) {
    EXPECT_TRUE(telemetry_ranks_seen[r]) << "rank " << r << " never shipped";
  }
  // Every wire fault class must actually have fired across the storm.
  for (int i = 0; i < 4; ++i) {
    EXPECT_GT(fired[i], 0) << util::FaultSiteName(sites[i]);
  }
  std::printf(
      "[dist-chaos/socket] %d schedules: %lld drops, %lld corrupt, "
      "%lld stalls, %lld disconnects, %d recoveries\n",
      kSchedules, static_cast<long long>(fired[0]),
      static_cast<long long>(fired[1]), static_cast<long long>(fired[2]),
      static_cast<long long>(fired[3]), total_recoveries);
}

#ifdef DIST_WORKER_BIN

// Real processes, real SIGKILLs. Each schedule arms a genuine
// raise(SIGKILL) inside every worker process at a different step
// boundary (one also tears connections mid-send); the gang must grind
// through the deaths and land on exactly the thread-transport weights.
TEST(DistChaosTest, RealProcessSigkillSchedulesRecoverToTheExactResult) {
  const std::vector<std::vector<std::string>> schedules = {
      {"--arm-fault=worker-kill@5"},
      {"--arm-fault=worker-kill@6"},
      {"--arm-fault=worker-kill@9"},
      {"--arm-fault=worker-kill@6", "--arm-fault=sock-disconnect@10"},
  };

  // Thread-transport reference on the toy task the worker binary runs.
  ScratchDir ref_dir("tfmr_prochaos_ref");
  DistTrainerOptions ref_opts;
  ref_opts.world_size = 2;
  ref_opts.max_steps = 24;
  ref_opts.adamw = ToyAdamWOptions();
  ref_opts.checkpoint_dir = ref_dir.path();
  ref_opts.checkpoint_every = 4;
  DistTrainer ref(ref_opts, ToyModelFactory(), ToyDistLoss());
  ASSERT_TRUE(ref.Run().ok());

  for (size_t schedule = 0; schedule < schedules.size(); ++schedule) {
    SCOPED_TRACE("proc schedule " + std::to_string(schedule));
    ScratchDir dir("tfmr_prochaos_s" + std::to_string(schedule));
    ProcGroupOptions o;
    o.world_size = 2;
    o.max_steps = 24;
    o.checkpoint_every = 4;
    o.checkpoint_dir = dir.path();
    o.worker_binary = DIST_WORKER_BIN;
    o.worker_extra_args = schedules[schedule];
    ProcGroupCoordinator gang(o, ToyModelFactory(), ToyAdamWOptions());

    obs::FlightRecorder::Global().Clear();
    util::Status s = gang.Run();
    ASSERT_TRUE(s.ok()) << s << "\n" << gang.FormatIncidents();
    EXPECT_GE(gang.recoveries(), 1);

    // Incident-report conservation: every incident produced exactly one
    // structured report (the run recovered every time, so reports ==
    // recoveries), and each report's merged timeline contains the victim
    // rank's final shipped events — the telemetry it pushed from inside
    // the dying process.
    const std::vector<obs::IncidentReport>& reports = gang.incident_reports();
    EXPECT_EQ(reports.size(), static_cast<size_t>(gang.recoveries()))
        << gang.FormatIncidents();
    for (const obs::IncidentReport& report : reports) {
      SCOPED_TRACE(report.Format());
      EXPECT_FALSE(report.kind.empty());
      bool victim_final_events = false;
      for (const obs::GangEvent& ge : report.timeline) {
        if (ge.rank == report.rank &&
            (ge.event.type == obs::FlightEventType::kTelemetryShip ||
             ge.event.type == obs::FlightEventType::kPostmortemDump)) {
          victim_final_events = true;
          break;
        }
      }
      EXPECT_TRUE(victim_final_events)
          << "victim rank " << report.rank
          << "'s final shipped events missing from the report timeline";
    }

    // Death -> recovery -> respawn, in that order, in the flight record.
    const auto events = obs::FlightRecorder::Global().Dump();
    int phase = 0;
    for (const auto& ev : events) {
      if (phase == 0 && ev.type == obs::FlightEventType::kWorkerDeath) {
        phase = 1;
      } else if (phase == 1 &&
                 ev.type == obs::FlightEventType::kDistRecovery) {
        phase = 2;
      } else if (phase == 2 &&
                 ev.type == obs::FlightEventType::kProcSpawn) {
        phase = 3;
        break;
      }
    }
    EXPECT_EQ(phase, 3) << obs::FlightRecorder::Global().Format(64);

    // The faulted multi-process run ends bit-identical to the unfaulted
    // in-process reference.
    std::unique_ptr<nn::Module> final_model = MakeToyReplica();
    auto latest = LatestCheckpoint(dir.path());
    ASSERT_TRUE(latest.ok());
    ASSERT_TRUE(
        LoadCheckpoint(final_model.get(), latest.value(), nullptr).ok());
    EXPECT_EQ(MaxParamDiff(*ref.model(0), *final_model), 0.0f);
  }
}

#endif  // DIST_WORKER_BIN

}  // namespace
}  // namespace llm::train::dist
