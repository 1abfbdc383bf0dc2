// Chaos harness for the serving runtime (ctest label: `chaos`).
//
// Each schedule is a seeded, randomized storm: a small server with random
// batch/queue/worker/watchdog geometry, probabilistic fault plans armed on
// every serving injection site (poisoned logits, worker stalls, leaked KV
// slots, throwing callbacks), concurrent submitters, random cancellations,
// and tight deadlines — finished off with either a graceful Drain or a
// hard Shutdown.
//
// Whatever the storm does, two invariants must survive every schedule:
//
//   1. Conservation: every accepted request reaches exactly one terminal
//      state — submitted == completed + cancelled + expired + failed +
//      preempted — and Wait() returns for every accepted id.
//   2. No leaks: at quiescence every KV slot is back in the free list.
//
// Plus the streaming contract: tokens delivered through on_token are
// always a prefix of the request's final token vector, in order.
//
// The schedules are deterministic per seed (modulo thread interleaving),
// so a failure reproduces under --gtest_filter with its seed. The suite is
// intended to run under TSan too (preset `tsan-chaos`); assertions are
// race-tolerant — they pin down invariants, not interleavings.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/inference_server.h"
#include "util/fault.h"
#include "util/rng.h"

namespace llm::serve {
namespace {

// Everything the harness remembers about one submitted request.
struct RequestLog {
  GenerateRequest request;  // as submitted (callback stripped)
  RequestId id = 0;
  bool cancel = false;       // harness will cancel it shortly after submit
  int64_t cancel_after_us = 0;
  bool has_callback = false;
  std::mutex mu;
  std::vector<int64_t> streamed;  // tokens seen by on_token, in order
};

class ServeChaosTest : public ::testing::TestWithParam<int> {
 protected:
  void TearDown() override { util::FaultInjector::Global().Disarm(); }
};

TEST_P(ServeChaosTest, InvariantsSurviveRandomFaultSchedule) {
  const int seed = GetParam();
  SCOPED_TRACE("chaos seed " + std::to_string(seed));
  util::Rng chaos(0x9E3779B97F4A7C15ull ^ (static_cast<uint64_t>(seed) *
                                          0x2545F4914F6CDD1Dull));

  // Random server geometry.
  nn::GPTConfig cfg;
  cfg.vocab_size = 19;
  cfg.max_seq_len = 12 + static_cast<int64_t>(chaos.UniformInt(20));
  cfg.d_model = 24;
  cfg.n_layer = 2;
  cfg.n_head = 3;
  util::Rng model_rng(static_cast<uint64_t>(seed) + 100);
  nn::GPTModel model(cfg, &model_rng);

  ServerOptions options;
  options.max_batch_size = 1 + static_cast<int64_t>(chaos.UniformInt(4));
  options.queue_capacity = 4 + static_cast<size_t>(chaos.UniformInt(12));
  options.num_workers = static_cast<int>(chaos.UniformInt(3));
  const bool watchdog = (seed % 3) == 0;
  if (watchdog) options.tick_budget = std::chrono::milliseconds(15);

  // Random request population, generated up front so the schedule is a
  // pure function of the seed.
  const int n_requests = 5 + static_cast<int>(chaos.UniformInt(9));
  std::vector<std::shared_ptr<RequestLog>> logs;
  for (int i = 0; i < n_requests; ++i) {
    auto log = std::make_shared<RequestLog>();
    const int prompt_len = 1 + static_cast<int>(chaos.UniformInt(3));
    for (int t = 0; t < prompt_len; ++t) {
      log->request.prompt.push_back(
          static_cast<int64_t>(chaos.UniformInt(cfg.vocab_size)));
    }
    log->request.seed = chaos.NextU64();
    log->request.max_new_tokens = 1 + static_cast<int64_t>(chaos.UniformInt(16));
    log->request.sampler.temperature = 0.8f;
    log->request.sampler.top_k = 5;
    if (chaos.Bernoulli(0.3)) {
      log->request.timeout =
          std::chrono::milliseconds(3 + chaos.UniformInt(40));
    }
    log->has_callback = chaos.Bernoulli(0.4);
    log->cancel = chaos.Bernoulli(0.25);
    log->cancel_after_us = static_cast<int64_t>(chaos.UniformInt(2000));
    logs.push_back(std::move(log));
  }

  // Probabilistic fault plans on every serving site. Arm before Start so
  // occurrence counters begin at the first tick.
  auto& injector = util::FaultInjector::Global();
  injector.ArmRandom(util::FaultSite::kDecodeNaN, 0.08 * chaos.Uniform(),
                     chaos.NextU64());
  injector.ArmRandom(util::FaultSite::kSlotLeak, 0.10 * chaos.Uniform(),
                     chaos.NextU64());
  injector.ArmRandom(util::FaultSite::kOnTokenThrow, 0.05 * chaos.Uniform(),
                     chaos.NextU64());
  if (seed % 5 == 0) {
    // Two stalls mid-run; with the watchdog armed they become failed
    // requests, without it they are just slow ticks.
    injector.ArmAt(util::FaultSite::kWorkerStall, {2, 29});
  }

  InferenceServer server(&model, options);
  server.Start();

  // Two submitter threads race admission; each cancels its own marked
  // requests after a short delay, interleaving cancellation with
  // streaming, expiry, and the armed faults.
  std::mutex accepted_mu;
  std::vector<RequestId> accepted;
  auto submit_range = [&](size_t begin, size_t step) {
    for (size_t i = begin; i < logs.size(); i += step) {
      auto& log = logs[i];
      GenerateRequest request = log->request;
      if (log->has_callback) {
        RequestLog* raw = log.get();
        request.on_token = [raw](RequestId, int64_t token) {
          std::lock_guard<std::mutex> lock(raw->mu);
          raw->streamed.push_back(token);
        };
      }
      RetryOptions retry;
      retry.max_attempts = 4;
      retry.initial_backoff = std::chrono::milliseconds(1);
      retry.max_backoff = std::chrono::milliseconds(8);
      retry.jitter_seed = static_cast<uint64_t>(seed) * 31 + i;
      util::StatusOr<RequestId> id = (i % 4 == 0)
                                         ? server.SubmitWithRetry(request, retry)
                                         : server.Submit(std::move(request));
      if (!id.ok()) continue;  // shed: rejected never enters conservation
      log->id = id.value();
      {
        std::lock_guard<std::mutex> lock(accepted_mu);
        accepted.push_back(id.value());
      }
      if (log->cancel) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(log->cancel_after_us));
        server.Cancel(id.value());
      }
    }
  };
  std::thread submitter_a([&] { submit_range(0, 2); });
  std::thread submitter_b([&] { submit_range(1, 2); });
  submitter_a.join();
  submitter_b.join();

  // Alternate the two ways down: graceful drain (everything must reach a
  // terminal state well inside the timeout) or hard shutdown mid-flight.
  if (seed % 2 == 0) {
    const util::Status drained = server.Drain(std::chrono::seconds(30));
    EXPECT_TRUE(drained.ok()) << drained.ToString();
  } else {
    server.Shutdown();
  }

  // Invariant 1: Wait returns for every accepted id, with a terminal
  // reason, and the streaming prefix contract held.
  for (const auto& log : logs) {
    if (log->id == 0) continue;
    auto result = server.Wait(log->id);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_NE(result.value().reason, FinishReason::kNone);
    if (log->has_callback) {
      std::lock_guard<std::mutex> lock(log->mu);
      ASSERT_LE(log->streamed.size(), result.value().tokens.size());
      for (size_t t = 0; t < log->streamed.size(); ++t) {
        EXPECT_EQ(log->streamed[t], result.value().tokens[t])
            << "streamed token " << t << " diverged from the final output";
      }
    }
  }

  // Invariant 2: conservation and no leaked slots at quiescence.
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.submitted, accepted.size());
  EXPECT_EQ(stats.submitted, stats.completed + stats.cancelled +
                                 stats.expired + stats.failed +
                                 stats.preempted);
  EXPECT_EQ(stats.active_slots, 0);
  EXPECT_EQ(stats.free_slots, stats.total_slots);
  EXPECT_EQ(stats.queue_depth, 0u);
}

// >= 50 distinct schedules, as the failure model demands: enough to cover
// fault-site combinations, both shutdown paths, and watchdog on/off.
INSTANTIATE_TEST_SUITE_P(Schedules, ServeChaosTest, ::testing::Range(0, 56));

// --- Tenant storms ---------------------------------------------------------
//
// The multi-tenant variant: every request carries a random tenant class,
// background rides a randomized token quota, the queue is small enough
// that chat arrivals shed and preempt lower classes, and slot-leak /
// poisoned-logit faults fire throughout. On top of the global invariants,
// conservation must hold PER CLASS — shed and preempted requests are
// terminal states attributed to the class that suffered them, never
// silently dropped — and chat (non-sheddable, non-preemptible under the
// default policy) must see neither.
class TenantStormTest : public ::testing::TestWithParam<int> {
 protected:
  void TearDown() override { util::FaultInjector::Global().Disarm(); }
};

TEST_P(TenantStormTest, PerClassConservationSurvivesStorm) {
  const int seed = GetParam();
  SCOPED_TRACE("tenant storm seed " + std::to_string(seed));
  util::Rng chaos(0xC0FFEEull ^ (static_cast<uint64_t>(seed) *
                                 0x9E3779B97F4A7C15ull));

  nn::GPTConfig cfg;
  cfg.vocab_size = 19;
  cfg.max_seq_len = 16;
  cfg.d_model = 24;
  cfg.n_layer = 2;
  cfg.n_head = 3;
  util::Rng model_rng(static_cast<uint64_t>(seed) + 900);
  nn::GPTModel model(cfg, &model_rng);

  ServerOptions options;
  options.max_batch_size = 1 + static_cast<int64_t>(chaos.UniformInt(3));
  options.queue_capacity = 2 + static_cast<size_t>(chaos.UniformInt(4));
  options.num_workers = static_cast<int>(chaos.UniformInt(2));
  if (chaos.Bernoulli(0.5)) {
    // Randomized background quota, tight enough to reject some arrivals.
    auto& background = options.tenants.classes[static_cast<size_t>(
        TenantClass::kBackground)];
    background.quota_tokens_per_sec = 1.0 + chaos.Uniform() * 20.0;
    background.quota_burst_tokens = 10.0 + chaos.Uniform() * 30.0;
  }

  const int n_requests = 8 + static_cast<int>(chaos.UniformInt(10));
  std::vector<GenerateRequest> requests;
  for (int i = 0; i < n_requests; ++i) {
    GenerateRequest request;
    const int prompt_len = 1 + static_cast<int>(chaos.UniformInt(3));
    for (int t = 0; t < prompt_len; ++t) {
      request.prompt.push_back(
          static_cast<int64_t>(chaos.UniformInt(cfg.vocab_size)));
    }
    request.seed = chaos.NextU64();
    request.max_new_tokens = 1 + static_cast<int64_t>(chaos.UniformInt(12));
    request.sampler.temperature = 0.8f;
    request.sampler.top_k = 5;
    request.tenant = static_cast<TenantClass>(chaos.UniformInt(3));
    requests.push_back(std::move(request));
  }

  auto& injector = util::FaultInjector::Global();
  injector.ArmRandom(util::FaultSite::kDecodeNaN, 0.08 * chaos.Uniform(),
                     chaos.NextU64());
  injector.ArmRandom(util::FaultSite::kSlotLeak, 0.10 * chaos.Uniform(),
                     chaos.NextU64());

  InferenceServer server(&model, options);
  server.Start();

  std::mutex accepted_mu;
  std::vector<RequestId> accepted;
  uint64_t accepted_per_class[kNumTenantClasses] = {};
  uint64_t exhausted_per_class[kNumTenantClasses] = {};
  auto submit_range = [&](size_t begin, size_t step) {
    for (size_t i = begin; i < requests.size(); i += step) {
      util::StatusOr<RequestId> id = server.Submit(requests[i]);
      std::lock_guard<std::mutex> lock(accepted_mu);
      const size_t cls = static_cast<size_t>(requests[i].tenant);
      if (!id.ok()) {
        // Quota / queue rejection: never accepted.
        if (id.status().code() == util::StatusCode::kResourceExhausted) {
          ++exhausted_per_class[cls];
        }
        continue;
      }
      accepted.push_back(id.value());
      ++accepted_per_class[cls];
    }
  };
  std::thread submitter_a([&] { submit_range(0, 2); });
  std::thread submitter_b([&] { submit_range(1, 2); });
  submitter_a.join();
  submitter_b.join();

  if (seed % 2 == 0) {
    const util::Status drained = server.Drain(std::chrono::seconds(30));
    EXPECT_TRUE(drained.ok()) << drained.ToString();
  } else {
    server.Shutdown();
  }
  for (RequestId id : accepted) {
    auto result = server.Wait(id);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_NE(result.value().reason, FinishReason::kNone);
  }

  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.submitted, accepted.size());
  EXPECT_EQ(stats.submitted, stats.completed + stats.cancelled +
                                 stats.expired + stats.failed +
                                 stats.preempted);
  // Every server total is the sum of its class fields; `rejected` sums
  // both kinds of Submit rejection.
  RequestCounts sum;
  uint64_t sum_tokens = 0;
  for (size_t c = 0; c < kNumTenantClasses; ++c) {
    const TenantClassStats& cs = stats.classes[c];
    SCOPED_TRACE(std::string("class ") +
                 TenantClassName(static_cast<TenantClass>(c)));
    EXPECT_EQ(cs.submitted, accepted_per_class[c]);
    EXPECT_EQ(cs.submitted, cs.completed + cs.cancelled + cs.expired +
                                cs.failed + cs.preempted);
    EXPECT_EQ(cs.rejected + cs.quota_rejected, exhausted_per_class[c]);
    sum.submitted += cs.submitted;
    sum.rejected += cs.rejected + cs.quota_rejected;
    sum.completed += cs.completed;
    sum.cancelled += cs.cancelled;
    sum.expired += cs.expired;
    sum.failed += cs.failed;
    sum.preempted += cs.preempted;
    sum_tokens += cs.tokens;
  }
  EXPECT_EQ(stats.submitted, sum.submitted);
  EXPECT_EQ(stats.rejected, sum.rejected);
  EXPECT_EQ(stats.completed, sum.completed);
  EXPECT_EQ(stats.cancelled, sum.cancelled);
  EXPECT_EQ(stats.expired, sum.expired);
  EXPECT_EQ(stats.failed, sum.failed);
  EXPECT_EQ(stats.preempted, sum.preempted);
  EXPECT_EQ(stats.total_tokens, sum_tokens);
  // Chat is neither sheddable nor preemptible under the default policy.
  const TenantClassStats& chat =
      stats.classes[static_cast<size_t>(TenantClass::kChat)];
  EXPECT_EQ(chat.shed, 0u);
  EXPECT_EQ(chat.preempted, 0u);
  EXPECT_EQ(chat.quota_rejected, 0u);
  EXPECT_EQ(stats.active_slots, 0);
  EXPECT_EQ(stats.free_slots, stats.total_slots);
  EXPECT_EQ(stats.queue_depth, 0u);
}

INSTANTIATE_TEST_SUITE_P(Storms, TenantStormTest, ::testing::Range(0, 24));

}  // namespace
}  // namespace llm::serve
