// Data-parallel training runtime tests: CommHub collectives (all-gather,
// deterministic all-reduce, poisoned-round timeouts, drop and CRC
// detection on both transports, abort), ZeRO-1 ShardedAdamW (partition
// determinism, bit-exactness vs plain AdamW), and DistTrainer end-to-end
// — equal-global-batch equivalence with the single-process Trainer and
// checkpoint-based recovery from killed, stalled, and corrupted-collective
// workers.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "nn/layers.h"
#include "obs/flight_recorder.h"
#include "obs/telemetry.h"
#include "train/checkpoint.h"
#include "train/dist/comm.h"
#include "train/dist/dist_trainer.h"
#include "train/dist/sharded_adamw.h"
#include "train/dist/socket_transport.h"
#include "train/optimizer.h"
#include "train/trainer.h"
#include "util/fault.h"
#include "util/rng.h"

namespace llm::train::dist {
namespace {

namespace fs = std::filesystem;
using util::FaultInjector;
using util::FaultSite;
using std::chrono::milliseconds;

/// Fresh scratch directory per test; removed on destruction.
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

class DistTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Disarm(); }
};

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

// ---------------------------------------------------------------------------
// Equal-global-batch regression task. The global batch is derived from the
// step index alone, so every world size (and the single-process Trainer)
// consumes identical data; rank r of N takes the r-th slice of rows. The
// per-rank loss is the shard's SumAll scaled by N, so the all-reduced MEAN
// equals the single-process full-batch SumAll — same loss, same gradients
// (up to fp summation order at N > 1; bit-exact at N = 1).
// ---------------------------------------------------------------------------

constexpr int kIn = 4, kHidden = 8, kOut = 2;
constexpr int kGlobalBatch = 4;
constexpr uint64_t kDataSeed = 0xD157ull;

std::unique_ptr<nn::Module> MakeReplica() {
  util::Rng rng(7);
  return std::make_unique<nn::Mlp>(kIn, kHidden, kOut, &rng);
}

core::Tensor GlobalBatch(int64_t step) {
  util::Rng rng(kDataSeed +
                0x9E3779B97F4A7C15ull * (static_cast<uint64_t>(step) + 1));
  return core::Tensor::RandomNormal({kGlobalBatch, kIn}, &rng);
}

core::Variable ShardLoss(nn::Module& model, int rank, int world,
                         int64_t step) {
  core::Tensor full = GlobalBatch(step);
  const int rows = kGlobalBatch / world;
  core::Tensor shard({rows, kIn});
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < kIn; ++j) {
      shard[i * kIn + j] = full[(rank * rows + i) * kIn + j];
    }
  }
  core::Variable x(shard, false);
  core::Variable y = static_cast<nn::Mlp&>(model).Forward(x);
  core::Variable loss = core::SumAll(core::Mul(y, y));
  if (world == 1) return loss;  // identical graph to the single-process run
  core::Tensor scale = core::Tensor::Scalar(static_cast<float>(world));
  return core::Mul(loss, core::Variable(scale, false));
}

DistLossFn MakeDistLoss() {
  return [](nn::Module& model, const StepContext& ctx) {
    return ShardLoss(model, ctx.rank, ctx.world_size, ctx.step);
  };
}

DistTrainerOptions BaseOptions(int world, const std::string& dir) {
  DistTrainerOptions o;
  o.world_size = world;
  o.max_steps = 8;
  o.adamw.lr = 1e-2f;
  o.checkpoint_dir = dir;
  o.checkpoint_every = 3;
  o.keep_last_k = 2;
  o.collective_timeout = milliseconds(2000);
  o.heartbeat_timeout = milliseconds(10000);
  o.monitor_poll = milliseconds(1);
  o.max_recoveries = 10;
  return o;
}

// ---------------------------------------------------------------------------
// CommHub collectives.
// ---------------------------------------------------------------------------

TEST_F(DistTest, ExchangeGathersEveryRanksContribution) {
  CommHub hub(3);
  std::vector<std::vector<std::vector<float>>> got(3);
  std::vector<std::thread> ranks;
  for (int r = 0; r < 3; ++r) {
    ranks.emplace_back([&hub, &got, r] {
      auto result = hub.Exchange(
          r, /*seq=*/0, {static_cast<float>(r), static_cast<float>(10 * r)},
          milliseconds(2000));
      ASSERT_TRUE(result.ok()) << result.status();
      got[static_cast<size_t>(r)] = std::move(result).value();
    });
  }
  for (auto& t : ranks) t.join();
  for (int r = 0; r < 3; ++r) {
    ASSERT_EQ(got[static_cast<size_t>(r)].size(), 3u);
    for (int s = 0; s < 3; ++s) {
      const auto& buf = got[static_cast<size_t>(r)][static_cast<size_t>(s)];
      ASSERT_EQ(buf.size(), 2u);
      EXPECT_EQ(buf[0], static_cast<float>(s));
      EXPECT_EQ(buf[1], static_cast<float>(10 * s));
    }
  }
}

TEST_F(DistTest, AllReduceMeanIsBitIdenticalAcrossRanks) {
  constexpr int kWorld = 4;
  CommHub hub(kWorld);
  std::vector<std::vector<float>> data(kWorld);
  std::vector<std::thread> ranks;
  for (int r = 0; r < kWorld; ++r) {
    // Values chosen so fp summation order matters if it were per-rank.
    data[static_cast<size_t>(r)] = {1e-3f * static_cast<float>(r + 1),
                                    1e4f - static_cast<float>(r),
                                    -3.25f * static_cast<float>(r)};
    ranks.emplace_back([&hub, &data, r] {
      util::Status s = hub.AllReduceMean(r, /*seq=*/0,
                                         &data[static_cast<size_t>(r)],
                                         milliseconds(2000));
      ASSERT_TRUE(s.ok()) << s;
    });
  }
  for (auto& t : ranks) t.join();
  for (int r = 1; r < kWorld; ++r) {
    ASSERT_EQ(data[static_cast<size_t>(r)].size(), data[0].size());
    for (size_t j = 0; j < data[0].size(); ++j) {
      // Bit-identical, not just close: rank-ordered summation everywhere.
      EXPECT_EQ(data[static_cast<size_t>(r)][j], data[0][j]);
    }
  }
  // And the value is the rank-ordered mean.
  float expect0 = 0.0f;
  for (int r = 0; r < kWorld; ++r) {
    expect0 += 1e-3f * static_cast<float>(r + 1);
  }
  expect0 *= 1.0f / kWorld;
  EXPECT_EQ(data[0][0], expect0);
}

TEST_F(DistTest, TimeoutPoisonsRoundSoLateRanksFailFast) {
  CommHub hub(2);
  // Rank 0 waits alone and times out...
  util::Status first = hub.Barrier(/*rank=*/0, /*seq=*/7, milliseconds(50));
  EXPECT_EQ(first.code(), util::StatusCode::kDeadlineExceeded) << first;
  // ...and rank 1, arriving later, is cancelled immediately by the poison
  // instead of serving its own full timeout.
  const auto before = std::chrono::steady_clock::now();
  util::Status late = hub.Barrier(/*rank=*/1, /*seq=*/7, milliseconds(10000));
  EXPECT_EQ(late.code(), util::StatusCode::kCancelled) << late;
  EXPECT_LT(std::chrono::steady_clock::now() - before, milliseconds(5000));
}

TEST_F(DistTest, AbortAllCancelsWaitersAndResetRearms) {
  CommHub hub(2);
  util::Status blocked_result;
  std::thread waiter([&] {
    blocked_result = hub.Barrier(/*rank=*/0, /*seq=*/0, milliseconds(10000));
  });
  // Give the waiter time to block, then collapse the world.
  std::this_thread::sleep_for(milliseconds(20));
  hub.AbortAll();
  waiter.join();
  EXPECT_EQ(blocked_result.code(), util::StatusCode::kCancelled);
  // New rounds fail instantly while aborted.
  EXPECT_EQ(hub.Barrier(1, 1, milliseconds(1000)).code(),
            util::StatusCode::kCancelled);
  // Reset clears the latch: a full round completes again.
  hub.Reset();
  std::thread r0([&] {
    EXPECT_TRUE(hub.Barrier(0, 2, milliseconds(2000)).ok());
  });
  EXPECT_TRUE(hub.Barrier(1, 2, milliseconds(2000)).ok());
  r0.join();
}

// The comm-* fault sites fire in the hub's deposit, which both carriers
// share: in-process ranks on the hub itself, and SocketComm ranks against
// a SocketServer in front of it.
class DistCommFaultTest : public DistTest,
                          public ::testing::WithParamInterface<CommTransport> {
 protected:
  // Runs `fn(rank, comm)` on `world` rank threads over the transport under
  // test; returns once every rank and the server are done.
  void RunRanks(int world, const std::function<void(int, Comm&)>& fn) {
    CommHub hub(world);
    ScratchDir dir("tfmr_comm_fault");
    std::unique_ptr<SocketServer> server;
    if (GetParam() == CommTransport::kSocket) {
      server = std::make_unique<SocketServer>(&hub, dir.path() + "/comm.sock");
      ASSERT_TRUE(server->Start().ok());
    }
    std::vector<std::thread> ranks;
    for (int r = 0; r < world; ++r) {
      ranks.emplace_back([&, r] {
        if (!server) return fn(r, hub);
        SocketComm comm(r, world, server->bound_address(), /*epoch=*/0);
        fn(r, comm);
      });
    }
    for (auto& t : ranks) t.join();
    if (server) server->Stop();  // every deposit has reached the hub
  }
};

TEST_P(DistCommFaultTest, DroppedContributionFailsTheWholeRound) {
  FaultInjector::Global().ArmAt(FaultSite::kCommDrop, {0});
  std::vector<util::Status> status(2);
  RunRanks(2, [&status](int r, Comm& comm) {
    std::vector<float> data = {1.0f, 2.0f};
    status[static_cast<size_t>(r)] =
        comm.AllReduceMean(r, 0, &data, milliseconds(100));
  });
  for (int r = 0; r < 2; ++r) {
    const util::StatusCode code = status[static_cast<size_t>(r)].code();
    EXPECT_TRUE(code == util::StatusCode::kDeadlineExceeded ||
                code == util::StatusCode::kCancelled)
        << status[static_cast<size_t>(r)];
  }
  const auto counts = FaultInjector::Global().AllCounts();
  const auto& drop = counts[static_cast<size_t>(FaultSite::kCommDrop)];
  EXPECT_EQ(drop.seen, 2);
  EXPECT_EQ(drop.fired, 1);
}

TEST_P(DistCommFaultTest, CorruptedContributionDetectedByChecksum) {
  FaultInjector::Global().ArmAt(FaultSite::kCommCorrupt, {0});
  std::vector<util::Status> status(2);
  RunRanks(2, [&status](int r, Comm& comm) {
    std::vector<float> data = {1.5f, -2.5f, 3.5f};
    status[static_cast<size_t>(r)] =
        comm.AllReduceMean(r, 0, &data, milliseconds(2000));
  });
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(status[static_cast<size_t>(r)].code(),
              util::StatusCode::kInternal)
        << status[static_cast<size_t>(r)];
    EXPECT_NE(status[static_cast<size_t>(r)].message().find("checksum"),
              std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Transports, DistCommFaultTest,
    ::testing::Values(CommTransport::kThread, CommTransport::kSocket),
    [](const ::testing::TestParamInfo<CommTransport>& info) {
      return info.param == CommTransport::kThread ? "thread" : "socket";
    });

// ---------------------------------------------------------------------------
// ShardedAdamW: partition and update semantics.
// ---------------------------------------------------------------------------

TEST_F(DistTest, PartitionOwnersIsBalancedAndDeterministic) {
  auto model = MakeReplica();
  const auto params = model->Parameters();
  for (int world : {1, 2, 3, 4}) {
    const std::vector<int> owners =
        ShardedAdamW::PartitionOwners(params, world);
    ASSERT_EQ(owners.size(), params.size());
    std::vector<int64_t> load(static_cast<size_t>(world), 0);
    int64_t largest_param = 0;
    for (size_t i = 0; i < params.size(); ++i) {
      ASSERT_GE(owners[i], 0);
      ASSERT_LT(owners[i], world);
      load[static_cast<size_t>(owners[i])] += params[i].numel();
      largest_param = std::max(largest_param, params[i].numel());
    }
    const auto [lo, hi] = std::minmax_element(load.begin(), load.end());
    // Greedy balance: the spread never exceeds the largest single param.
    EXPECT_LE(*hi - *lo, largest_param);
    EXPECT_EQ(owners, ShardedAdamW::PartitionOwners(params, world));
  }
}

TEST_F(DistTest, WorldOneShardIsBitExactWithPlainAdamW) {
  auto ma = MakeReplica();
  auto mb = MakeReplica();
  AdamWOptions opts;
  opts.lr = 1e-2f;
  opts.weight_decay = 0.01f;
  AdamW plain(ma->Parameters(), opts);
  ShardedAdamW shard(mb->Parameters(), opts, /*rank=*/0, /*world_size=*/1);
  for (int64_t step = 0; step < 4; ++step) {
    core::Variable la = ShardLoss(*ma, 0, 1, step);
    core::Variable lb = ShardLoss(*mb, 0, 1, step);
    plain.ZeroGrad();
    shard.ZeroGrad();
    core::Backward(la);
    core::Backward(lb);
    plain.Step();
    shard.Step();
  }
  EXPECT_EQ(MaxParamDiff(*ma, *mb), 0.0f);
  EXPECT_EQ(shard.step_count(), plain.step_count());
}

TEST_F(DistTest, TwoShardsTogetherReproducePlainAdamW) {
  // Two replicas with identical weights and identical (full-batch) grads,
  // each stepping only its owned shard, together cover every parameter
  // with exactly the plain-AdamW update.
  auto mp = MakeReplica();
  auto m0 = MakeReplica();
  auto m1 = MakeReplica();
  AdamWOptions opts;
  opts.lr = 1e-2f;
  AdamW plain(mp->Parameters(), opts);
  ShardedAdamW s0(m0->Parameters(), opts, 0, 2);
  ShardedAdamW s1(m1->Parameters(), opts, 1, 2);
  for (int64_t step = 0; step < 3; ++step) {
    for (auto* m : {mp.get(), m0.get(), m1.get()}) {
      core::Variable loss = ShardLoss(*m, 0, 1, step);
      core::Backward(loss);  // grads identical across replicas
    }
    plain.Step();
    s0.Step();
    s1.Step();
    // Every param: the owner's replica matches the plain update bit for
    // bit (the non-owner replica is stale until the all-gather, which
    // this unit test performs by hand).
    const auto pp = mp->Parameters();
    const auto p0 = m0->Parameters();
    const auto p1 = m1->Parameters();
    for (size_t i = 0; i < pp.size(); ++i) {
      const auto& owned = s0.Owns(i) ? p0[i] : p1[i];
      EXPECT_EQ(core::Tensor::MaxAbsDiff(pp[i].value(), owned.value()), 0.0f)
          << "param " << i << " step " << step;
      // Hand all-gather: copy the owner's values to the stale replica.
      auto stale = s0.Owns(i) ? p1[i] : p0[i];
      stale.mutable_value() = owned.value();
    }
    plain.ZeroGrad();
    s0.ZeroGrad();
    s1.ZeroGrad();
  }
}

TEST_F(DistTest, ShardImportsFullAdamWStateAndExportsOwnedSlice) {
  auto ma = MakeReplica();
  auto mb = MakeReplica();
  AdamWOptions opts;
  AdamW plain(ma->Parameters(), opts);
  // Put some structure into the moments.
  core::Variable loss = ShardLoss(*ma, 0, 1, 0);
  core::Backward(loss);
  plain.Step();
  OptimizerState full = plain.ExportState();

  ShardedAdamW shard(mb->Parameters(), opts, /*rank=*/1, /*world_size=*/2);
  ASSERT_TRUE(shard.ImportState(full).ok());
  EXPECT_EQ(shard.step_count(), 1);
  // Wrong type is rejected.
  OptimizerState bad = full;
  bad.type = "sgd";
  EXPECT_FALSE(shard.ImportState(bad).ok());

  const OptimizerState owned = shard.ExportState();
  EXPECT_EQ(owned.type, "adamw-shard");
  EXPECT_EQ(owned.step, 1);
  size_t owned_count = 0;
  for (size_t i = 0; i < mb->Parameters().size(); ++i) {
    if (shard.Owns(i)) ++owned_count;
  }
  ASSERT_EQ(owned.slots.size(), 2 * owned_count);
  // Owned m slots carry the imported full-state values.
  const size_t n = ma->Parameters().size();
  size_t slot = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!shard.Owns(i)) continue;
    EXPECT_EQ(owned.slots[slot].first, "m/" + std::to_string(i));
    EXPECT_EQ(core::Tensor::MaxAbsDiff(owned.slots[slot].second,
                                       full.slots[i].second),
              0.0f);
    ++slot;
  }
}

// ---------------------------------------------------------------------------
// DistTrainer: equal-global-batch equivalence with the single-process
// Trainer.
// ---------------------------------------------------------------------------

TEST_F(DistTest, WorldOneIsBitExactWithSingleProcessTrainer) {
  ScratchDir dir_a("tfmr_dist_eq_a");
  ScratchDir dir_b("tfmr_dist_eq_b");

  util::Rng mr(7);
  nn::Mlp model(kIn, kHidden, kOut, &mr);
  AdamWOptions aopts;
  aopts.lr = 1e-2f;
  AdamW opt(model.Parameters(), aopts);
  TrainerOptions topts;
  topts.max_steps = 8;
  topts.checkpoint_dir = dir_a.path();
  topts.model = &model;
  Trainer trainer(&opt, topts);
  int64_t step = 0;
  ASSERT_TRUE(
      trainer.Run([&] { return ShardLoss(model, 0, 1, step++); }).ok());

  DistTrainer dist(BaseOptions(1, dir_b.path()), MakeReplica,
                   MakeDistLoss());
  util::Status s = dist.Run();
  ASSERT_TRUE(s.ok()) << s;

  EXPECT_EQ(MaxParamDiff(model, *dist.model(0)), 0.0f);
  ASSERT_EQ(dist.history().size(), trainer.history().size());
  for (size_t i = 0; i < trainer.history().size(); ++i) {
    EXPECT_EQ(dist.history()[i].step, trainer.history()[i].step);
    EXPECT_EQ(dist.history()[i].loss, trainer.history()[i].loss)
        << "step " << i;
    EXPECT_EQ(dist.history()[i].grad_norm, trainer.history()[i].grad_norm);
  }
}

TEST_F(DistTest, WiderWorldsMatchSingleProcessWithinTolerance) {
  ScratchDir dir_base("tfmr_dist_tol_base");
  DistTrainer baseline(BaseOptions(1, dir_base.path()), MakeReplica,
                       MakeDistLoss());
  ASSERT_TRUE(baseline.Run().ok());

  for (int world : {2, 4}) {
    ScratchDir dir("tfmr_dist_tol_w" + std::to_string(world));
    DistTrainer dist(BaseOptions(world, dir.path()), MakeReplica,
                     MakeDistLoss());
    util::Status s = dist.Run();
    ASSERT_TRUE(s.ok()) << "world " << world << ": " << s;
    // Same data, same math up to fp summation order: the loss curve and
    // final weights agree to a pinned tolerance, not just loosely.
    ASSERT_EQ(dist.history().size(), baseline.history().size());
    for (size_t i = 0; i < baseline.history().size(); ++i) {
      const float want = baseline.history()[i].loss;
      EXPECT_NEAR(dist.history()[i].loss, want,
                  1e-3f * (1.0f + std::abs(want)))
          << "world " << world << " step " << i;
    }
    EXPECT_LE(MaxParamDiff(*baseline.model(0), *dist.model(world - 1)),
              1e-3f)
        << "world " << world;
  }
}

// ---------------------------------------------------------------------------
// DistTrainer: recovery from injected incidents. Every faulted run must
// finish bit-identical to the unfaulted run — checkpoint replay is exact.
// ---------------------------------------------------------------------------

TEST_F(DistTest, KilledWorkerIsRecoveredFromCheckpointMidRun) {
  ScratchDir dir_ref("tfmr_dist_kill_ref");
  DistTrainerOptions ref_opts = BaseOptions(2, dir_ref.path());
  ref_opts.checkpoint_every = 2;
  DistTrainer reference(ref_opts, MakeReplica, MakeDistLoss());
  ASSERT_TRUE(reference.Run().ok());

  obs::FlightRecorder::Global().Clear();
  ScratchDir dir("tfmr_dist_kill");
  DistTrainerOptions opts = BaseOptions(2, dir.path());
  opts.checkpoint_every = 2;
  // Occurrence ~6 lands a few steps in, past the step-2 checkpoint.
  FaultInjector::Global().ArmAt(FaultSite::kWorkerKill, {6});
  DistTrainer dist(opts, MakeReplica, MakeDistLoss());
  util::Status s = dist.Run();
  ASSERT_TRUE(s.ok()) << s;
  FaultInjector::Global().Disarm();

  EXPECT_EQ(dist.recoveries(), 1);
  ASSERT_EQ(dist.incidents().size(), 1u);
  EXPECT_EQ(dist.incidents()[0].kind, "worker-death");
  EXPECT_NE(dist.incidents()[0].action.find("respawn"), std::string::npos);

  // One structured report per incident, as the process backend files.
  ASSERT_EQ(dist.incident_reports().size(), 1u);
  const obs::IncidentReport& report = dist.incident_reports()[0];
  EXPECT_EQ(report.kind, "worker-death");
  EXPECT_EQ(report.rank, dist.incidents()[0].rank);
  EXPECT_EQ(report.recovery, 1);
  EXPECT_EQ(report.action, dist.incidents()[0].action);
  EXPECT_FALSE(report.timeline.empty());

  // Deterministic replay: the faulted run ends bit-identical to the
  // unfaulted one — same weights on every replica, same loss curve.
  EXPECT_EQ(MaxParamDiff(*reference.model(0), *dist.model(0)), 0.0f);
  EXPECT_EQ(MaxParamDiff(*dist.model(0), *dist.model(1)), 0.0f);
  ASSERT_EQ(dist.history().size(), reference.history().size());
  for (size_t i = 0; i < reference.history().size(); ++i) {
    EXPECT_EQ(dist.history()[i].loss, reference.history()[i].loss);
  }

  // The death and the checkpoint-based recovery are both in the flight
  // recorder, in order.
  const auto events = obs::FlightRecorder::Global().Dump();
  uint64_t death_ticket = 0, recovery_ticket = 0;
  for (const auto& e : events) {
    if (e.type == obs::FlightEventType::kWorkerDeath && death_ticket == 0) {
      death_ticket = e.ticket + 1;  // +1: ticket 0 is a valid ticket
    }
    if (e.type == obs::FlightEventType::kDistRecovery) {
      recovery_ticket = e.ticket + 1;
    }
  }
  ASSERT_GT(death_ticket, 0u) << obs::FlightRecorder::Global().Format();
  ASSERT_GT(recovery_ticket, 0u) << obs::FlightRecorder::Global().Format();
  EXPECT_GT(recovery_ticket, death_ticket);
}

TEST_F(DistTest, StalledWorkerIsDetectedByHeartbeatAndRecovered) {
  ScratchDir dir_ref("tfmr_dist_stall_ref");
  DistTrainerOptions ref_opts = BaseOptions(2, dir_ref.path());
  ref_opts.checkpoint_every = 2;
  DistTrainer reference(ref_opts, MakeReplica, MakeDistLoss());
  ASSERT_TRUE(reference.Run().ok());

  ScratchDir dir("tfmr_dist_stall");
  DistTrainerOptions opts = BaseOptions(2, dir.path());
  opts.checkpoint_every = 2;
  // The straggler sleeps far past the heartbeat timeout while its peer
  // waits in a long collective: the monitor must flag the stall.
  opts.straggle_ms = 800;
  opts.heartbeat_timeout = milliseconds(200);
  opts.collective_timeout = milliseconds(5000);
  opts.monitor_poll = milliseconds(5);
  FaultInjector::Global().ArmAt(FaultSite::kWorkerStraggle, {5});
  DistTrainer dist(opts, MakeReplica, MakeDistLoss());
  util::Status s = dist.Run();
  ASSERT_TRUE(s.ok()) << s;
  FaultInjector::Global().Disarm();

  ASSERT_GE(dist.recoveries(), 1);
  EXPECT_EQ(dist.incidents()[0].kind, "worker-stall");
  EXPECT_EQ(MaxParamDiff(*reference.model(0), *dist.model(0)), 0.0f);
}

TEST_F(DistTest, BenignStraggleBelowTimeoutNeedsNoRecovery) {
  ScratchDir dir("tfmr_dist_benign");
  DistTrainerOptions opts = BaseOptions(2, dir.path());
  opts.straggle_ms = 20;  // well under every timeout
  FaultInjector::Global().ArmAt(FaultSite::kWorkerStraggle, {3, 7});
  DistTrainer dist(opts, MakeReplica, MakeDistLoss());
  util::Status s = dist.Run();
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_EQ(dist.recoveries(), 0);
  EXPECT_EQ(FaultInjector::Global().Fired(FaultSite::kWorkerStraggle), 2);
}

TEST_F(DistTest, CorruptCollectivePayloadTriggersRecovery) {
  ScratchDir dir_ref("tfmr_dist_crc_ref");
  DistTrainerOptions ref_opts = BaseOptions(2, dir_ref.path());
  ref_opts.checkpoint_every = 2;
  DistTrainer reference(ref_opts, MakeReplica, MakeDistLoss());
  ASSERT_TRUE(reference.Run().ok());

  ScratchDir dir("tfmr_dist_crc");
  DistTrainerOptions opts = BaseOptions(2, dir.path());
  opts.checkpoint_every = 2;
  FaultInjector::Global().ArmAt(FaultSite::kCommCorrupt, {4});
  DistTrainer dist(opts, MakeReplica, MakeDistLoss());
  util::Status s = dist.Run();
  ASSERT_TRUE(s.ok()) << s;
  FaultInjector::Global().Disarm();

  ASSERT_GE(dist.recoveries(), 1);
  EXPECT_EQ(dist.incidents()[0].kind, "collective-failure");
  EXPECT_NE(dist.incidents()[0].detail.find("checksum"), std::string::npos)
      << dist.incidents()[0].detail;
  EXPECT_EQ(MaxParamDiff(*reference.model(0), *dist.model(0)), 0.0f);
}

TEST_F(DistTest, RecoveryBudgetExhaustionSurfacesIncidentLog) {
  ScratchDir dir("tfmr_dist_budget");
  DistTrainerOptions opts = BaseOptions(2, dir.path());
  opts.max_recoveries = 2;
  // Every step of every epoch kills a worker immediately.
  FaultInjector::Global().ArmRandom(FaultSite::kWorkerKill, 1.0, 1);
  DistTrainer dist(opts, MakeReplica, MakeDistLoss());
  util::Status s = dist.Run();
  EXPECT_EQ(s.code(), util::StatusCode::kInternal);
  EXPECT_NE(s.message().find("incident log"), std::string::npos) << s;
  EXPECT_NE(s.message().find("worker-death"), std::string::npos) << s;
  EXPECT_EQ(dist.incidents().size(), 3u);  // 2 recoveries + the fatal one
  // The fatal incident files its report too, without waiting for a respawn.
  ASSERT_EQ(dist.incident_reports().size(), 3u);
  EXPECT_EQ(dist.incident_reports().back().action,
            "none (recovery budget exhausted)");
  EXPECT_EQ(dist.incident_reports().back().recovery, 2);
}

TEST_F(DistTest, ResumesFromExistingCheckpointDir) {
  // Two half-runs over the same dir equal one full run: the second Run
  // picks up the rendezvous checkpoint the first one left behind.
  ScratchDir dir_full("tfmr_dist_resume_full");
  DistTrainer full(BaseOptions(2, dir_full.path()), MakeReplica,
                   MakeDistLoss());
  ASSERT_TRUE(full.Run().ok());

  ScratchDir dir("tfmr_dist_resume");
  DistTrainerOptions first_half = BaseOptions(2, dir.path());
  first_half.max_steps = 4;
  first_half.checkpoint_every = 0;  // final save only
  {
    DistTrainer dist(first_half, MakeReplica, MakeDistLoss());
    ASSERT_TRUE(dist.Run().ok());
  }
  DistTrainerOptions second_half = BaseOptions(2, dir.path());
  DistTrainer dist(second_half, MakeReplica, MakeDistLoss());
  ASSERT_TRUE(dist.Run().ok());
  EXPECT_EQ(MaxParamDiff(*full.model(0), *dist.model(0)), 0.0f);
  ASSERT_EQ(dist.history().size(), full.history().size());
  for (size_t i = 0; i < full.history().size(); ++i) {
    EXPECT_EQ(dist.history()[i].loss, full.history()[i].loss);
  }
}

TEST_F(DistTest, AbortRacingInflightBarrierNeverHangsOrMisreports) {
  // Hammer the exact interleaving the coordinator produces on recovery:
  // AbortAll lands while ranks are anywhere between "about to deposit"
  // and "blocked waiting". Whatever the timing, a rank must get OK (the
  // round closed first) or a prompt kCancelled — never a hang, never a
  // timeout served in full.
  CommHub hub(2);
  for (int round = 0; round < 50; ++round) {
    hub.Reset();
    util::Status s[2];
    std::thread r0([&] { s[0] = hub.Barrier(0, round, milliseconds(5000)); });
    std::thread r1([&] {
      if (round % 3 == 1) std::this_thread::sleep_for(milliseconds(1));
      s[1] = hub.Barrier(1, round, milliseconds(5000));
    });
    if (round % 3 == 2) std::this_thread::sleep_for(milliseconds(1));
    const auto t0 = std::chrono::steady_clock::now();
    hub.AbortAll();
    r0.join();
    r1.join();
    const auto waited = std::chrono::steady_clock::now() - t0;
    for (int r = 0; r < 2; ++r) {
      EXPECT_TRUE(s[r].ok() ||
                  s[r].code() == util::StatusCode::kCancelled)
          << "round " << round << " rank " << r << ": " << s[r];
    }
    EXPECT_LT(waited, milliseconds(4000)) << "round " << round;
  }
}

TEST_F(DistTest, StaleSeqWhileAbortedIsCancelledPromptly) {
  // A worker that never saw the abort (it was mid-step) re-enters an old
  // round's seq. The abort latch must answer immediately — the stale rank
  // may not sit out its own full timeout, and it may not resurrect the
  // dead round.
  CommHub hub(2);
  std::thread r1([&] {
    (void)hub.Exchange(1, /*seq=*/4, {1.0f}, milliseconds(200));
  });
  std::this_thread::sleep_for(milliseconds(20));
  hub.AbortAll();
  r1.join();
  const auto t0 = std::chrono::steady_clock::now();
  auto stale = hub.Exchange(0, /*seq=*/4, {2.0f}, milliseconds(10000));
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), util::StatusCode::kCancelled);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, milliseconds(2000));
}

TEST_F(DistTest, SeqReusedAfterResetStartsAFreshRound) {
  // Workers restart their collective counters at zero every epoch, so
  // seq values are reused across Reset. The reused seq must behave as a
  // brand-new round: it blocks for the full world and returns the NEW
  // contributions, not a cached pre-Reset result.
  CommHub hub(2);
  std::thread other([&] {
    auto got = hub.Exchange(1, /*seq=*/0, {10.0f}, milliseconds(2000));
    ASSERT_TRUE(got.ok());
  });
  auto first = hub.Exchange(0, /*seq=*/0, {20.0f}, milliseconds(2000));
  other.join();
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first.value()[1], std::vector<float>{10.0f});

  hub.Reset();
  // Alone on the reused seq: a fresh round must WAIT (and here, time
  // out), not serve the old gather.
  auto alone = hub.Exchange(0, /*seq=*/0, {30.0f}, milliseconds(60));
  ASSERT_FALSE(alone.ok());
  EXPECT_EQ(alone.status().code(), util::StatusCode::kDeadlineExceeded);

  hub.Reset();
  std::thread fresh([&] {
    auto got = hub.Exchange(1, /*seq=*/0, {11.0f}, milliseconds(2000));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value()[0], std::vector<float>{31.0f});
  });
  auto second = hub.Exchange(0, /*seq=*/0, {31.0f}, milliseconds(2000));
  fresh.join();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value()[1], std::vector<float>{11.0f});
}

TEST_F(DistTest, ZeroLengthPayloadExchangeCompletes) {
  // Barrier is "Exchange of nothing" — the empty payload must be a
  // first-class citizen, not an accidental edge case: CRCs of empty
  // buffers, zero-length gathers, mixed empty/non-empty rounds.
  CommHub hub(2);
  std::thread r1([&] {
    auto got = hub.Exchange(1, 0, {}, milliseconds(2000));
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(got.value()[0].empty());
    EXPECT_EQ(got.value()[1], std::vector<float>{});
  });
  auto got = hub.Exchange(0, 0, {}, milliseconds(2000));
  r1.join();
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got.value().size(), 2u);
  EXPECT_TRUE(got.value()[0].empty());
  EXPECT_TRUE(got.value()[1].empty());

  // Mixed: one empty, one not — lengths are per-rank, not homogeneous.
  std::thread r1b([&] {
    auto mixed = hub.Exchange(1, 1, {5.0f}, milliseconds(2000));
    ASSERT_TRUE(mixed.ok());
    EXPECT_TRUE(mixed.value()[0].empty());
  });
  auto mixed = hub.Exchange(0, 1, {}, milliseconds(2000));
  r1b.join();
  ASSERT_TRUE(mixed.ok());
  EXPECT_EQ(mixed.value()[1], std::vector<float>{5.0f});
}

}  // namespace
}  // namespace llm::train::dist
