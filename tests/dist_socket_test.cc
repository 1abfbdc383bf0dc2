// Socket-backed collective transport suite: the wire protocol, the
// SocketServer/SocketComm pair, epoch fencing, reconnect-through-cache
// convergence, the dead-transport blind-spot detector, thread-vs-socket
// bit-exactness of full DistTrainer runs, and real multi-process gangs
// (ProcGroupCoordinator + the dist_worker binary) surviving real SIGKILLs
// bit-exactly.
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "train/checkpoint.h"
#include "train/dist/dist_trainer.h"
#include "train/dist/proc_group.h"
#include "train/dist/socket_transport.h"
#include "train/dist/toy_task.h"
#include "train/dist/wire.h"
#include "util/crc32.h"
#include "util/fault.h"

namespace llm::train::dist {
namespace {

namespace fs = std::filesystem;
using std::chrono::milliseconds;
using util::FaultInjector;
using util::FaultSite;
using util::StatusCode;

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

SteadyClock::time_point In(int ms) {
  return SteadyClock::now() + milliseconds(ms);
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

// ---------------------------------------------------------------------------
// Wire protocol.
// ---------------------------------------------------------------------------

class WirePair : public ::testing::Test {
 protected:
  void SetUp() override {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a_ = fds[0];
    b_ = fds[1];
    for (int fd : {a_, b_}) {
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    }
  }
  void TearDown() override {
    if (a_ >= 0) ::close(a_);
    if (b_ >= 0) ::close(b_);
    FaultInjector::Global().Disarm();
  }
  int a_ = -1, b_ = -1;
};

TEST_F(WirePair, FrameRoundtripPreservesEveryField) {
  Frame out;
  out.type = FrameType::kContribution;
  out.rank = 3;
  out.status = 0;
  out.epoch = 7;
  out.seq = 42;
  out.payload = EncodeFloats({1.5f, -2.25f, 0.0f, 3e-7f});
  ASSERT_TRUE(SendFrame(a_, out, In(500)).ok());

  auto in = ReadFrame(b_, In(500));
  ASSERT_TRUE(in.ok()) << in.status();
  EXPECT_EQ(in.value().type, FrameType::kContribution);
  EXPECT_EQ(in.value().rank, 3);
  EXPECT_EQ(in.value().epoch, 7);
  EXPECT_EQ(in.value().seq, 42);
  EXPECT_TRUE(in.value().payload_ok);
  EXPECT_EQ(DecodeFloats(in.value().payload),
            (std::vector<float>{1.5f, -2.25f, 0.0f, 3e-7f}));
}

TEST_F(WirePair, ZeroLengthPayloadRoundtrips) {
  Frame out;
  out.type = FrameType::kHeartbeat;
  out.rank = 0;
  ASSERT_TRUE(SendFrame(a_, out, In(500)).ok());
  auto in = ReadFrame(b_, In(500));
  ASSERT_TRUE(in.ok()) << in.status();
  EXPECT_TRUE(in.value().payload.empty());
  EXPECT_TRUE(in.value().payload_ok);
}

TEST_F(WirePair, GarbageStreamIsRejectedAsInternal) {
  const char junk[kFrameHeaderBytes] = "this is not a TFMW frame at all";
  ASSERT_EQ(::send(a_, junk, sizeof(junk), 0),
            static_cast<ssize_t>(sizeof(junk)));
  auto in = ReadFrame(b_, In(500));
  ASSERT_FALSE(in.ok());
  EXPECT_EQ(in.status().code(), StatusCode::kInternal);
}

TEST_F(WirePair, CorruptedPayloadComesBackFlaggedNotFatal) {
  FaultInjector::Global().ArmAt(FaultSite::kSockCorruptFrame, {0});
  Frame out;
  out.type = FrameType::kContribution;
  out.rank = 1;
  out.seq = 5;
  out.payload = EncodeFloats({1.0f, 2.0f, 3.0f});
  ASSERT_TRUE(SendFrame(a_, out, In(500)).ok());

  auto in = ReadFrame(b_, In(500));
  ASSERT_TRUE(in.ok()) << in.status();  // framing intact: not an error
  EXPECT_FALSE(in.value().payload_ok);  // ...but the payload is poisoned
  EXPECT_EQ(in.value().seq, 5);

  // The connection itself stays usable for the next, clean frame.
  Frame clean;
  clean.type = FrameType::kHeartbeat;
  clean.rank = 1;
  ASSERT_TRUE(SendFrame(a_, clean, In(500)).ok());
  auto next = ReadFrame(b_, In(500));
  ASSERT_TRUE(next.ok());
  EXPECT_TRUE(next.value().payload_ok);
}

TEST_F(WirePair, DroppedFrameReportsOkButWritesNothing) {
  FaultInjector::Global().ArmAt(FaultSite::kSockDrop, {0});
  Frame out;
  out.type = FrameType::kHeartbeat;
  out.rank = 0;
  ASSERT_TRUE(SendFrame(a_, out, In(100)).ok());  // "sent", per the sender
  auto in = ReadFrame(b_, In(100));
  ASSERT_FALSE(in.ok());
  EXPECT_EQ(in.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(WirePair, DisconnectFaultClosesTheConnection) {
  FaultInjector::Global().ArmAt(FaultSite::kSockDisconnect, {0});
  Frame out;
  out.type = FrameType::kHeartbeat;
  out.rank = 0;
  EXPECT_EQ(SendFrame(a_, out, In(200)).code(), StatusCode::kIOError);
  auto in = ReadFrame(b_, In(200));
  ASSERT_FALSE(in.ok());
  EXPECT_EQ(in.status().code(), StatusCode::kIOError);  // EOF, not timeout
}

TEST(WireCodec, GatherRoundtripAndValidation) {
  const std::vector<std::vector<float>> bufs = {
      {1.0f, 2.0f}, {}, {3.5f, -4.5f, 5.5f}};
  auto decoded = DecodeGather(EncodeGather(bufs));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), bufs);

  std::vector<uint8_t> bytes = EncodeGather(bufs);
  bytes.pop_back();  // truncated stream must be rejected, not mis-split
  EXPECT_FALSE(DecodeGather(bytes).ok());
  EXPECT_FALSE(DecodeGather({0x01}).ok());
}

const std::vector<std::vector<float>> kPinnedGather = {
    {1.5f, -2.0f}, {}, {3.25f, 1e-30f, -0.0f}};

TEST_F(WirePair, FrameBytesArePinned) {
  Frame out;
  out.type = FrameType::kResult;
  out.rank = -2;
  out.status = 13;
  out.epoch = int64_t{1} << 33;
  out.seq = -9;
  out.payload = EncodeGather(kPinnedGather);
  ASSERT_TRUE(SendFrame(a_, out, In(500)).ok());
  std::vector<uint8_t> raw(kFrameHeaderBytes + out.payload.size());
  ASSERT_EQ(::recv(b_, raw.data(), raw.size(), MSG_WAITALL),
            static_cast<ssize_t>(raw.size()));
  EXPECT_EQ(raw.size(), 80u);
  EXPECT_EQ(util::Crc32(raw.data(), raw.size()), 0x3ea3eeadu);
}

TEST(WireCodec, EveryProperGatherPrefixIsRejectedAsInternal) {
  const std::vector<uint8_t> bytes = EncodeGather(kPinnedGather);
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    const std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + keep);
    EXPECT_EQ(DecodeGather(prefix).status().code(), StatusCode::kInternal)
        << "prefix of " << keep << " bytes";
  }
}

// ---------------------------------------------------------------------------
// SocketServer + SocketComm collectives.
// ---------------------------------------------------------------------------

class SocketCollectivesTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Disarm(); }

  // Runs `fn(rank, comm)` on `world` client threads against a fresh
  // server; returns after all clients finish.
  void RunWorld(int world, const std::string& dir,
                const std::function<void(int, SocketComm&)>& fn,
                int64_t epoch = 0) {
    CommHub hub(world);
    SocketServer server(&hub, dir + "/comm.sock");
    ASSERT_TRUE(server.Start().ok());
    server.Reset(epoch);
    std::vector<std::thread> ranks;
    for (int r = 0; r < world; ++r) {
      ranks.emplace_back([&, r] {
        SocketComm comm(r, world, server.bound_address(), epoch);
        fn(r, comm);
      });
    }
    for (auto& t : ranks) t.join();
    server.Stop();
  }
};

TEST_F(SocketCollectivesTest, ExchangeMatchesCommHubBitExactly) {
  ScratchDir dir("tfmr_sock_exchange");
  constexpr int kWorld = 3;

  // Reference: the same contributions through the in-process hub.
  CommHub hub(kWorld);
  std::vector<std::vector<std::vector<float>>> hub_results(kWorld);
  {
    std::vector<std::thread> ranks;
    for (int r = 0; r < kWorld; ++r) {
      ranks.emplace_back([&, r] {
        auto got = hub.Exchange(r, 0, {static_cast<float>(r) * 1.25f,
                                       -static_cast<float>(r)},
                                milliseconds(2000));
        ASSERT_TRUE(got.ok());
        hub_results[r] = std::move(got).value();
      });
    }
    for (auto& t : ranks) t.join();
  }

  std::vector<std::vector<std::vector<float>>> sock_results(kWorld);
  RunWorld(kWorld, dir.path(), [&](int r, SocketComm& comm) {
    auto got = comm.Exchange(r, 0, {static_cast<float>(r) * 1.25f,
                                    -static_cast<float>(r)},
                             milliseconds(2000));
    ASSERT_TRUE(got.ok()) << got.status();
    sock_results[r] = std::move(got).value();
    // Mean reduction and barrier ride the same Exchange machinery.
    std::vector<float> v = {1.0f + r, 2.0f * r};
    ASSERT_TRUE(comm.AllReduceMean(r, 1, &v, milliseconds(2000)).ok());
    EXPECT_EQ(v[0], (1.0f + 2.0f + 3.0f) / 3.0f);
    ASSERT_TRUE(comm.Barrier(r, 2, milliseconds(2000)).ok());
    comm.Finish(r);
  });
  for (int r = 0; r < kWorld; ++r) {
    EXPECT_EQ(sock_results[r], hub_results[r]) << "rank " << r;
  }
}

TEST_F(SocketCollectivesTest, ZeroLengthExchangeCompletes) {
  ScratchDir dir("tfmr_sock_zero");
  RunWorld(2, dir.path(), [&](int r, SocketComm& comm) {
    auto got = comm.Exchange(r, 0, {}, milliseconds(2000));
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(got.value().size(), 2u);
    EXPECT_TRUE(got.value()[0].empty());
    EXPECT_TRUE(got.value()[1].empty());
  });
}

TEST_F(SocketCollectivesTest, StaleEpochClientIsFencedPromptly) {
  ScratchDir dir("tfmr_sock_fence");
  CommHub hub(2);
  SocketServer server(&hub, dir.path() + "/comm.sock");
  ASSERT_TRUE(server.Start().ok());
  server.Reset(/*epoch=*/5);

  SocketComm stale(0, 2, server.bound_address(), /*epoch=*/3);
  const auto t0 = SteadyClock::now();
  auto got = stale.Exchange(0, 0, {1.0f}, milliseconds(10000));
  const auto elapsed = SteadyClock::now() - t0;
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCancelled);
  // Fencing is a prompt verdict, not a timeout.
  EXPECT_LT(elapsed, milliseconds(2000));
  server.Stop();
}

TEST_F(SocketCollectivesTest, ReconnectingClientConvergesThroughTheCache) {
  ScratchDir dir("tfmr_sock_reconnect");
  CommHub hub(1);
  SocketServer server(&hub, dir.path() + "/comm.sock");
  ASSERT_TRUE(server.Start().ok());
  server.Reset(0);
  SocketComm comm(0, 1, server.bound_address(), 0);
  ASSERT_TRUE(comm.Exchange(0, 0, {1.0f}, milliseconds(2000)).ok());
  EXPECT_EQ(comm.connect_count(), 1);

  // The next contribution send hits a connection that dies mid-flight;
  // the client must reconnect, re-send, and still get the round's result.
  FaultInjector::Global().ArmAt(FaultSite::kSockDisconnect, {0});
  auto got = comm.Exchange(0, 1, {2.0f}, milliseconds(2000));
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got.value()[0], std::vector<float>{2.0f});
  EXPECT_GE(comm.connect_count(), 2);
  comm.Finish(0);
  server.Stop();
}

TEST_F(SocketCollectivesTest, PoisonedRoundFailsFastForEveryParticipant) {
  ScratchDir dir("tfmr_sock_poison");
  // Rank 1 never contributes to round 0. Rank 0's short wait expires and
  // poisons the round; rank 1's later join on the poisoned round gets a
  // prompt kCancelled, never its own full timeout.
  CommHub hub(2);
  SocketServer server(&hub, dir.path() + "/comm.sock");
  ASSERT_TRUE(server.Start().ok());
  server.Reset(0);
  util::Status r0, r1;
  std::chrono::milliseconds r1_elapsed{0};
  std::thread t0([&] {
    SocketComm comm(0, 2, server.bound_address(), 0);
    r0 = comm.Exchange(0, 0, {1.0f}, milliseconds(200)).status();
  });
  std::thread t1([&] {
    SocketComm comm(1, 2, server.bound_address(), 0);
    std::this_thread::sleep_for(milliseconds(600));  // after the poisoning
    const auto t = SteadyClock::now();
    r1 = comm.Exchange(1, 0, {2.0f}, milliseconds(10000)).status();
    r1_elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        SteadyClock::now() - t);
  });
  t0.join();
  t1.join();
  EXPECT_EQ(r0.code(), StatusCode::kDeadlineExceeded) << r0;
  EXPECT_EQ(r1.code(), StatusCode::kCancelled) << r1;
  EXPECT_LT(r1_elapsed.count(), 5000);
  server.Stop();
}

// Regression for the heartbeat monitor blind spot: a rank whose transport
// connection dies dirtily (process gone, cable pulled) is reported by
// RanksDisconnectedOver within the grace period — the monitor no longer
// has to wait out a heartbeat flatline or a full collective timeout.
TEST_F(SocketCollectivesTest, DirtyDisconnectIsVisibleWithinTheGrace) {
  ScratchDir dir("tfmr_sock_blindspot");
  CommHub hub(2);
  SocketServer server(&hub, dir.path() + "/comm.sock");
  ASSERT_TRUE(server.Start().ok());
  server.Reset(0);

  // Both ranks join one real collective; then rank 0 finishes cleanly and
  // rank 1 drops off the wire without a goodbye.
  std::thread finisher([&] {
    SocketComm comm(0, 2, server.bound_address(), 0);
    ASSERT_TRUE(comm.Exchange(0, 0, {1.0f}, milliseconds(2000)).ok());
    comm.Finish(0);
  });
  {
    SocketComm victim(1, 2, server.bound_address(), 0);
    ASSERT_TRUE(victim.Exchange(1, 0, {2.0f}, milliseconds(2000)).ok());
  }  // destructor closes the socket; no goodbye was sent
  finisher.join();
  const auto t0 = SteadyClock::now();

  // Within ~grace the server names exactly the dirty rank.
  std::vector<int> down;
  while (SteadyClock::now() - t0 < milliseconds(3000)) {
    down = server.RanksDisconnectedOver(milliseconds(50));
    if (!down.empty()) break;
    std::this_thread::sleep_for(milliseconds(5));
  }
  const auto detect = std::chrono::duration_cast<std::chrono::milliseconds>(
      SteadyClock::now() - t0);
  ASSERT_EQ(down.size(), 1u);
  EXPECT_EQ(down[0], 1);
  EXPECT_TRUE(server.Finished(0));
  // Detection latency is grace-bounded — far below any collective or
  // heartbeat timeout.
  EXPECT_LT(detect.count(), 1000) << "blind-spot detection too slow";
  server.Stop();
}

// ---------------------------------------------------------------------------
// Full DistTrainer runs: thread vs socket transport, bit for bit.
// ---------------------------------------------------------------------------

DistTrainerOptions ToyTrainerOptions(int world, const std::string& dir) {
  DistTrainerOptions o;
  o.world_size = world;
  o.max_steps = 12;
  o.adamw = ToyAdamWOptions();
  o.checkpoint_dir = dir;
  o.checkpoint_every = 4;
  o.collective_timeout = milliseconds(4000);
  o.heartbeat_timeout = milliseconds(20000);
  return o;
}

TEST(DistSocketTrainerTest, SocketTransportIsBitExactWithThreads) {
  for (int world : {2, 4}) {
    SCOPED_TRACE("world " + std::to_string(world));
    ScratchDir tdir("tfmr_sock_thread_w" + std::to_string(world));
    ScratchDir sdir("tfmr_sock_socket_w" + std::to_string(world));

    DistTrainer threads(ToyTrainerOptions(world, tdir.path()),
                        ToyModelFactory(), ToyDistLoss());
    ASSERT_TRUE(threads.Run().ok());

    DistTrainerOptions sopt = ToyTrainerOptions(world, sdir.path());
    sopt.transport = CommTransport::kSocket;
    DistTrainer sockets(sopt, ToyModelFactory(), ToyDistLoss());
    util::Status s = sockets.Run();
    ASSERT_TRUE(s.ok()) << s << "\n" << sockets.FormatIncidents();

    EXPECT_EQ(MaxParamDiff(*threads.model(0), *sockets.model(0)), 0.0f);
    EXPECT_EQ(MaxParamDiff(*sockets.model(0), *sockets.model(world - 1)),
              0.0f);
    ASSERT_EQ(threads.history().size(), sockets.history().size());
    for (size_t i = 0; i < threads.history().size(); ++i) {
      EXPECT_EQ(threads.history()[i].loss, sockets.history()[i].loss)
          << "step " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Telemetry plane over the socket transport.
// ---------------------------------------------------------------------------

TEST(DistSocketTelemetryTest, AggregatorHoldsEveryRanksShippedMetrics) {
  obs::MetricsRegistry::Global().ResetAll();
  ScratchDir dir("tfmr_sock_telemetry");
  constexpr int kWorld = 2;
  DistTrainerOptions o = ToyTrainerOptions(kWorld, dir.path());
  o.transport = CommTransport::kSocket;
  o.telemetry_every = 2;
  DistTrainer dist(o, ToyModelFactory(), ToyDistLoss());
  util::Status s = dist.Run();
  ASSERT_TRUE(s.ok()) << s << "\n" << dist.FormatIncidents();

  const obs::TelemetryAggregator& agg = dist.telemetry();
  for (int r = 0; r < kWorld; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    const std::string prefix = "dist.worker." + std::to_string(r) + ".";
    ASSERT_TRUE(agg.HasRank(r));
    // The final ship is stamped with the last step reached.
    EXPECT_EQ(agg.RankStep(r), o.max_steps);
    // 12 steps / every 2 = 6 periodic ships + 1 final.
    EXPECT_EQ(agg.RankCounter(r, prefix + "telemetry_ships"), 7u);
    EXPECT_GT(agg.RankCounter(r, prefix + "comm_wait_ns"), 0u);
    EXPECT_GT(agg.IngestCount(r), 0);
    EXPECT_GT(agg.IngestedBytes(r), 0u);
  }
  // Shared-process workers ship only their own namespace: rank 1's unit
  // must never carry rank 0's counters.
  EXPECT_EQ(agg.RankCounter(1, "dist.worker.0.telemetry_ships"), 0u);
}

TEST(DistSocketTelemetryTest, ShippingIsBitExactAndCheap) {
  obs::MetricsRegistry::Global().ResetAll();
  ScratchDir qdir("tfmr_sock_tel_quiet");
  ScratchDir vdir("tfmr_sock_tel_verbose");
  constexpr int kWorld = 2;

  DistTrainerOptions quiet = ToyTrainerOptions(kWorld, qdir.path());
  quiet.transport = CommTransport::kSocket;
  quiet.telemetry_every = 0;  // plane off
  DistTrainer off(quiet, ToyModelFactory(), ToyDistLoss());
  ASSERT_TRUE(off.Run().ok());

  DistTrainerOptions verbose = ToyTrainerOptions(kWorld, vdir.path());
  verbose.transport = CommTransport::kSocket;
  verbose.telemetry_every = 1;  // ship every step
  DistTrainer on(verbose, ToyModelFactory(), ToyDistLoss());
  const auto t0 = SteadyClock::now();
  ASSERT_TRUE(on.Run().ok());
  const double run_ms = std::chrono::duration_cast<milliseconds>(
                            SteadyClock::now() - t0)
                            .count();

  // Telemetry is observation, not participation: weights and the loss
  // history must be bit-identical with the plane on or off.
  EXPECT_EQ(MaxParamDiff(*off.model(0), *on.model(0)), 0.0f);
  ASSERT_EQ(off.history().size(), on.history().size());
  for (size_t i = 0; i < off.history().size(); ++i) {
    EXPECT_EQ(off.history()[i].loss, on.history()[i].loss) << "step " << i;
  }

  // Shipping overhead: time the capture+encode path itself (what a step
  // pays, at most once per step) against the measured mean step time.
  obs::TelemetryCaptureOptions cap;
  cap.metric_prefix = "dist.worker.0.";
  cap.include_events = false;
  constexpr int kReps = 200;
  const auto c0 = SteadyClock::now();
  size_t bytes = 0;
  for (int i = 0; i < kReps; ++i) {
    bytes += obs::EncodeRankTelemetry(obs::CaptureRankTelemetry(
                                          0, 0, i, obs::kTelemetryShipPeriodic,
                                          cap))
                 .size();
  }
  const double ship_us =
      std::chrono::duration_cast<std::chrono::microseconds>(SteadyClock::now() -
                                                            c0)
          .count() /
      static_cast<double>(kReps);
  const double step_ms =
      run_ms / static_cast<double>(verbose.max_steps);
  std::printf("telemetry ship: %.1f us/unit (%zu B), step: %.2f ms "
              "-> overhead %.3f%%\n",
              ship_us, bytes / kReps, step_ms,
              100.0 * (ship_us / 1000.0) / step_ms);
  // The 2% budget is a Release timing: sanitizer instrumentation slows
  // capture+encode and the step by different factors, so it is checked
  // only in builds without it.
#if !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
  EXPECT_LT(ship_us / 1000.0, 0.02 * step_ms)
      << "telemetry capture+encode costs more than 2% of a step";
#endif
}

// ---------------------------------------------------------------------------
// Real processes: ProcGroupCoordinator + the dist_worker binary.
// ---------------------------------------------------------------------------

#ifdef DIST_WORKER_BIN

ProcGroupOptions ToyProcOptions(const std::string& dir) {
  ProcGroupOptions o;
  o.world_size = 2;
  o.max_steps = 24;
  o.checkpoint_every = 4;
  o.checkpoint_dir = dir;
  o.worker_binary = DIST_WORKER_BIN;
  o.collective_timeout = milliseconds(4000);
  o.heartbeat_timeout = milliseconds(20000);
  return o;
}

// Reference weights: the same schedule on the in-process thread transport.
std::unique_ptr<nn::Module> ThreadReference(const ProcGroupOptions& proc,
                                            const std::string& dir) {
  DistTrainerOptions o;
  o.world_size = proc.world_size;
  o.max_steps = proc.max_steps;
  o.adamw = ToyAdamWOptions();
  o.checkpoint_dir = dir;
  o.checkpoint_every = proc.checkpoint_every;
  o.seed = proc.seed;
  DistTrainer ref(o, ToyModelFactory(), ToyDistLoss());
  EXPECT_TRUE(ref.Run().ok());
  std::unique_ptr<nn::Module> model = MakeToyReplica();
  EXPECT_EQ(MaxParamDiff(*ref.model(0), *ref.model(proc.world_size - 1)),
            0.0f);
  // Hand back the trained weights via the final checkpoint for a clean
  // cross-process comparison path.
  auto latest = LatestCheckpoint(dir);
  EXPECT_TRUE(latest.ok());
  EXPECT_TRUE(LoadCheckpoint(model.get(), latest.value(), nullptr).ok());
  return model;
}

std::unique_ptr<nn::Module> LoadFinal(const std::string& dir) {
  std::unique_ptr<nn::Module> model = MakeToyReplica();
  auto latest = LatestCheckpoint(dir);
  EXPECT_TRUE(latest.ok());
  if (!latest.ok()) return model;
  EXPECT_TRUE(LoadCheckpoint(model.get(), latest.value(), nullptr).ok());
  return model;
}

TEST(DistProcTest, CleanGangMatchesThreadTransportBitExactly) {
  ScratchDir pdir("tfmr_proc_clean");
  ScratchDir rdir("tfmr_proc_clean_ref");
  ProcGroupOptions o = ToyProcOptions(pdir.path());
  ProcGroupCoordinator gang(o, ToyModelFactory(), ToyAdamWOptions());
  util::Status s = gang.Run();
  ASSERT_TRUE(s.ok()) << s << "\n" << gang.FormatIncidents();
  EXPECT_EQ(gang.recoveries(), 0) << gang.FormatIncidents();

  auto ref = ThreadReference(o, rdir.path());
  auto got = LoadFinal(pdir.path());
  EXPECT_EQ(MaxParamDiff(*ref, *got), 0.0f);
}

TEST(DistProcTest, RealSigkillRecoversBitExactly) {
  ScratchDir pdir("tfmr_proc_kill");
  ScratchDir rdir("tfmr_proc_kill_ref");
  ProcGroupOptions o = ToyProcOptions(pdir.path());
  // Every spawned worker arms a real SIGKILL at its 6th step boundary:
  // with checkpoints every 4 steps each epoch banks at least one new
  // checkpoint before dying, so the gang makes monotonic progress and
  // the run terminates after a handful of genuine process deaths.
  o.worker_extra_args = {"--arm-fault=worker-kill@6"};
  ProcGroupCoordinator gang(o, ToyModelFactory(), ToyAdamWOptions());

  obs::FlightRecorder::Global().Clear();
  util::Status s = gang.Run();
  ASSERT_TRUE(s.ok()) << s << "\n" << gang.FormatIncidents();
  EXPECT_GE(gang.recoveries(), 1);

  // Death -> recovery -> respawn ordering is visible in the coordinator's
  // flight recorder.
  const auto events = obs::FlightRecorder::Global().Dump();
  bool saw_ordered_recovery = false;
  int phase = 0;  // 0: want death, 1: want recovery, 2: want respawn
  for (const auto& ev : events) {
    if (phase == 0 && ev.type == obs::FlightEventType::kWorkerDeath) {
      phase = 1;
    } else if (phase == 1 &&
               ev.type == obs::FlightEventType::kDistRecovery) {
      phase = 2;
    } else if (phase == 2 && ev.type == obs::FlightEventType::kProcSpawn) {
      saw_ordered_recovery = true;
      break;
    }
  }
  EXPECT_TRUE(saw_ordered_recovery)
      << obs::FlightRecorder::Global().Format(64);

  auto ref = ThreadReference(o, rdir.path());
  auto got = LoadFinal(pdir.path());
  EXPECT_EQ(MaxParamDiff(*ref, *got), 0.0f);
}

TEST(DistProcTest, CoordinatorSigkillMidEpochRecoversBitExactly) {
  ScratchDir pdir("tfmr_proc_extkill");
  ScratchDir rdir("tfmr_proc_extkill_ref");
  ProcGroupOptions o = ToyProcOptions(pdir.path());
  ProcGroupCoordinator gang(o, ToyModelFactory(), ToyAdamWOptions());

  // Kill rank 1 from outside once the run is past its first mid-run
  // checkpoint — the dist_demo scenario, asserted.
  std::thread killer([&] {
    const std::string step0 = pdir.path() + "/" + CheckpointFileName(0);
    for (int i = 0; i < 2000; ++i) {
      auto latest = LatestCheckpoint(pdir.path());
      if (latest.ok() && latest.value() != step0) break;
      std::this_thread::sleep_for(milliseconds(2));
    }
    gang.KillRank(1);
  });
  util::Status s = gang.Run();
  killer.join();
  ASSERT_TRUE(s.ok()) << s << "\n" << gang.FormatIncidents();

  auto ref = ThreadReference(o, rdir.path());
  auto got = LoadFinal(pdir.path());
  EXPECT_EQ(MaxParamDiff(*ref, *got), 0.0f);
}

// The acceptance scenario for the incident pipeline: SIGKILL a rank
// mid-epoch and read the coordinator's structured postmortem. The report
// must carry the harvested crash dump, and its merged timeline must show
// the victim's own final events (its last telemetry ship / postmortem
// dump, shipped from inside the dead process) strictly before the
// coordinator's recovery and respawn events.
TEST(DistProcTest, SigkillIncidentReportInterleavesVictimAndCoordinator) {
  ScratchDir pdir("tfmr_proc_incident");
  ProcGroupOptions o = ToyProcOptions(pdir.path());
  o.worker_extra_args = {"--arm-fault=worker-kill@6"};
  // Room for both ranks' final deltas plus the recovery tail.
  o.incident_timeline_events = 48;
  ProcGroupCoordinator gang(o, ToyModelFactory(), ToyAdamWOptions());

  obs::FlightRecorder::Global().Clear();
  util::Status s = gang.Run();
  ASSERT_TRUE(s.ok()) << s << "\n" << gang.FormatIncidents();
  ASSERT_GE(gang.recoveries(), 1);

  // Exactly one structured report per incident.
  const std::vector<obs::IncidentReport>& reports = gang.incident_reports();
  ASSERT_EQ(reports.size(), static_cast<size_t>(gang.recoveries()))
      << gang.FormatIncidents();

  for (size_t i = 0; i < reports.size(); ++i) {
    const obs::IncidentReport& report = reports[i];
    SCOPED_TRACE("report " + std::to_string(i) + "\n" + report.Format());
    EXPECT_GE(report.rank, 0);
    EXPECT_LT(report.rank, o.world_size);
    EXPECT_FALSE(report.kind.empty());
    EXPECT_FALSE(report.detail.empty());
    EXPECT_FALSE(report.action.empty());
    // The worker dumped its last gasp before raising SIGKILL on itself,
    // and the coordinator harvested it.
    EXPECT_TRUE(report.postmortem_harvested);
    EXPECT_GE(report.step, 0);

    // Timeline interleaving: the victim's final events precede the
    // coordinator's recovery/respawn for this incident.
    int victim_last = -1;
    int coord_recovery = -1;
    int coord_respawn = -1;
    for (int j = 0; j < static_cast<int>(report.timeline.size()); ++j) {
      const obs::GangEvent& ge = report.timeline[j];
      if (ge.rank == report.rank &&
          (ge.event.type == obs::FlightEventType::kTelemetryShip ||
           ge.event.type == obs::FlightEventType::kPostmortemDump)) {
        victim_last = j;
      }
      if (ge.rank == obs::kCoordinatorRank && coord_recovery < 0 &&
          ge.event.type == obs::FlightEventType::kDistRecovery &&
          ge.event.c == static_cast<int64_t>(report.recovery)) {
        coord_recovery = j;
      }
      if (ge.rank == obs::kCoordinatorRank && coord_recovery >= 0 &&
          j > coord_recovery &&
          ge.event.type == obs::FlightEventType::kProcSpawn) {
        coord_respawn = j;
        break;
      }
    }
    ASSERT_GE(victim_last, 0) << "victim's final events missing";
    ASSERT_GE(coord_recovery, 0) << "coordinator recovery event missing";
    EXPECT_LT(victim_last, coord_recovery)
        << "victim's last events must precede the recovery";
    EXPECT_GE(coord_respawn, 0) << "respawn missing after recovery";

    // The machine-readable line round-trips the essentials.
    const std::string json = report.ToJson();
    EXPECT_NE(json.find("\"kind\":\"" + report.kind + "\""),
              std::string::npos);
    EXPECT_NE(json.find("\"postmortem\":true"), std::string::npos);
    EXPECT_NE(json.find("\"timeline\":["), std::string::npos);
  }

  // The dead rank's SIGKILL shows up in at least one report's wait
  // status (the monitor may classify via the transport first, but the
  // reaped status is recorded when available).
  bool saw_sigkill = false;
  for (const obs::IncidentReport& report : reports) {
    if (report.term_signal == SIGKILL) saw_sigkill = true;
  }
  EXPECT_TRUE(saw_sigkill) << gang.FormatIncidents();
}

#endif  // DIST_WORKER_BIN

}  // namespace
}  // namespace llm::train::dist
