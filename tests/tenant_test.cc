// Tests for multi-tenant overload control (ctest label: `tenants`).
//
// Coverage map:
//   - TokenBucket: virtual-time refill determinism, burst clamping, the
//     unlimited sentinel, non-monotone clocks.
//   - WorkloadGenerator: same seed => bit-identical schedule, different
//     seed => different schedule, every sampled request within bounds.
//   - RequestQueue: strict priority pop, FIFO within a class, weighted-
//     fair pop, the eviction rules (newest victim, lowest class first,
//     chat untouchable), close/drain accounting.
//   - InferenceServer: quota admission that cannot starve other classes,
//     chat preempting a running batch decode, shed-from-queue, and the
//     two determinism contracts — surviving batch mates stay bit-exact
//     with their single-stream reference, and a preempted request's
//     partial output is a strict prefix of its own reference — and a
//     preemption whose victim leaks its slot.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "sample/sampler.h"
#include "serve/inference_server.h"
#include "serve/request_queue.h"
#include "serve/tenant.h"
#include "serve/workload.h"
#include "util/fault.h"

namespace llm::serve {
namespace {

using Clock = std::chrono::steady_clock;

// --- TokenBucket -----------------------------------------------------------

TEST(TokenBucketTest, RefillsAtConfiguredRateInVirtualTime) {
  const auto t0 = Clock::now();
  TokenBucket bucket(/*rate_per_sec=*/10.0, /*burst=*/20.0, t0);
  EXPECT_TRUE(bucket.TryConsume(20.0, t0));   // full burst available
  EXPECT_FALSE(bucket.TryConsume(1.0, t0));   // drained
  // One virtual second refills exactly 10 tokens.
  const auto t1 = t0 + std::chrono::seconds(1);
  EXPECT_FALSE(bucket.TryConsume(10.5, t1));
  EXPECT_TRUE(bucket.TryConsume(10.0, t1));
  // Refill clamps at burst: after a long idle stretch only 20 fit.
  const auto t2 = t1 + std::chrono::hours(1);
  EXPECT_FALSE(bucket.TryConsume(20.5, t2));
  EXPECT_TRUE(bucket.TryConsume(20.0, t2));
}

TEST(TokenBucketTest, NonPositiveRateMeansUnlimited) {
  const auto t0 = Clock::now();
  TokenBucket bucket(/*rate_per_sec=*/0.0, /*burst=*/1.0, t0);
  EXPECT_TRUE(bucket.unlimited());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(bucket.TryConsume(1e9, t0));
  }
}

TEST(TokenBucketTest, ClockGoingBackwardsNeverMintsTokens) {
  const auto t0 = Clock::now();
  TokenBucket bucket(/*rate_per_sec=*/10.0, /*burst=*/10.0, t0);
  EXPECT_TRUE(bucket.TryConsume(10.0, t0));
  // A clock that jumps backwards must not refill (or crash).
  EXPECT_FALSE(bucket.TryConsume(1.0, t0 - std::chrono::seconds(5)));
  EXPECT_GE(bucket.Available(t0), 0.0);
}

// --- WorkloadGenerator -----------------------------------------------------

nn::GPTConfig WorkloadConfig() {
  nn::GPTConfig cfg;
  cfg.vocab_size = 512;
  cfg.max_seq_len = 32;
  cfg.d_model = 16;
  cfg.n_layer = 1;
  cfg.n_head = 2;
  return cfg;
}

std::vector<TenantLoadSpec> StormSpecs() {
  return {MakeChatSpec(40.0), MakeBatchSpec(20.0), MakeBackgroundSpec(10.0)};
}

TEST(WorkloadGeneratorTest, SameSeedReproducesTheExactSchedule) {
  const nn::GPTConfig cfg = WorkloadConfig();
  WorkloadGenerator a(StormSpecs(), cfg, 42);
  WorkloadGenerator b(StormSpecs(), cfg, 42);
  const std::vector<Arrival> sa = a.OpenLoopSchedule(500.0);
  const std::vector<Arrival> sb = b.OpenLoopSchedule(500.0);
  ASSERT_FALSE(sa.empty());
  ASSERT_EQ(sa.size(), sb.size());
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_DOUBLE_EQ(sa[i].at_ms, sb[i].at_ms);
    EXPECT_EQ(sa[i].request.tenant, sb[i].request.tenant);
    EXPECT_EQ(sa[i].request.prompt, sb[i].request.prompt);
    EXPECT_EQ(sa[i].request.max_new_tokens, sb[i].request.max_new_tokens);
    EXPECT_EQ(sa[i].request.seed, sb[i].request.seed);
  }
}

TEST(WorkloadGeneratorTest, DifferentSeedsProduceDifferentSchedules) {
  const nn::GPTConfig cfg = WorkloadConfig();
  WorkloadGenerator a(StormSpecs(), cfg, 1);
  WorkloadGenerator b(StormSpecs(), cfg, 2);
  const std::vector<Arrival> sa = a.OpenLoopSchedule(500.0);
  const std::vector<Arrival> sb = b.OpenLoopSchedule(500.0);
  bool differs = sa.size() != sb.size();
  for (size_t i = 0; !differs && i < sa.size(); ++i) {
    differs = sa[i].at_ms != sb[i].at_ms ||
              sa[i].request.prompt != sb[i].request.prompt;
  }
  EXPECT_TRUE(differs);
}

TEST(WorkloadGeneratorTest, SampledRequestsRespectBounds) {
  const nn::GPTConfig cfg = WorkloadConfig();
  WorkloadGenerator gen(StormSpecs(), cfg, 7);
  for (size_t spec = 0; spec < gen.num_specs(); ++spec) {
    for (int i = 0; i < 200; ++i) {
      const GenerateRequest request = gen.Sample(spec);
      EXPECT_EQ(request.tenant, gen.spec(spec).tenant);
      EXPECT_GE(request.prompt.size(), 1u);
      EXPECT_LE(request.prompt.size(),
                static_cast<size_t>(gen.spec(spec).max_prompt_tokens));
      for (int64_t token : request.prompt) {
        EXPECT_GE(token, 0);
        EXPECT_LT(token, cfg.vocab_size);
      }
      EXPECT_GE(request.max_new_tokens, 1);
      EXPECT_LE(request.max_new_tokens, gen.spec(spec).max_output_tokens);
    }
  }
}

TEST(WorkloadGeneratorTest, ArrivalsAreSortedAndInsideTheWindow) {
  WorkloadGenerator gen(StormSpecs(), WorkloadConfig(), 9);
  const std::vector<Arrival> schedule = gen.OpenLoopSchedule(300.0);
  ASSERT_FALSE(schedule.empty());
  double prev = 0.0;
  for (const Arrival& arrival : schedule) {
    EXPECT_GE(arrival.at_ms, prev);
    EXPECT_LT(arrival.at_ms, 300.0);
    prev = arrival.at_ms;
  }
}

// --- RequestQueue lanes ----------------------------------------------------

std::shared_ptr<RequestState> MakeState(RequestId id, TenantClass tenant) {
  auto state = std::make_shared<RequestState>();
  state->id = id;
  state->request.tenant = tenant;
  return state;
}

TEST(TenantQueueTest, StrictPriorityAcrossClassesFifoWithin) {
  RequestQueue queue(8);
  ASSERT_TRUE(queue.Push(MakeState(1, TenantClass::kBackground)).ok());
  ASSERT_TRUE(queue.Push(MakeState(2, TenantClass::kBatch)).ok());
  ASSERT_TRUE(queue.Push(MakeState(3, TenantClass::kChat)).ok());
  ASSERT_TRUE(queue.Push(MakeState(4, TenantClass::kChat)).ok());
  ASSERT_TRUE(queue.Push(MakeState(5, TenantClass::kBatch)).ok());
  EXPECT_EQ(queue.PeekTopClass(), static_cast<int>(TenantClass::kChat));
  EXPECT_EQ(queue.size_of_class(TenantClass::kChat), 2u);

  std::shared_ptr<RequestState> state;
  std::vector<RequestId> order;
  while (queue.TryPop(&state)) order.push_back(state->id);
  EXPECT_EQ(order, (std::vector<RequestId>{3, 4, 2, 5, 1}));
  EXPECT_EQ(queue.PeekTopClass(), -1);
}

TEST(TenantQueueTest, WeightedFairPopBalancesByActiveShare) {
  RequestQueue queue(8);
  ASSERT_TRUE(queue.Push(MakeState(1, TenantClass::kChat)).ok());
  ASSERT_TRUE(queue.Push(MakeState(2, TenantClass::kBatch)).ok());
  const TenantPolicy policy = TenantPolicy::Default();  // weights 4/2/1

  // Chat already holds 4 slots (its full weighted share), batch holds 0:
  // the fair pop must pick batch even though chat outranks it.
  int64_t active[kNumTenantClasses] = {4, 0, 0};
  std::shared_ptr<RequestState> state;
  ASSERT_TRUE(queue.TryPopFair(active, policy, &state));
  EXPECT_EQ(state->id, 2u);
  // Now nothing active: chat wins on priority (ties break low index).
  int64_t idle[kNumTenantClasses] = {0, 0, 0};
  ASSERT_TRUE(queue.TryPopFair(idle, policy, &state));
  EXPECT_EQ(state->id, 1u);
}

TEST(TenantQueueTest, EvictionTakesNewestOfTheLowestClassOnly) {
  RequestQueue queue(4);
  const TenantPolicy policy = TenantPolicy::Default();
  ASSERT_TRUE(queue.Push(MakeState(1, TenantClass::kBatch)).ok());
  ASSERT_TRUE(queue.Push(MakeState(2, TenantClass::kBackground)).ok());
  ASSERT_TRUE(queue.Push(MakeState(3, TenantClass::kBackground)).ok());
  ASSERT_TRUE(queue.Push(MakeState(4, TenantClass::kBatch)).ok());

  // Background cannot displace anyone (no class below it).
  EXPECT_EQ(queue.EvictLowerPriority(TenantClass::kBackground, policy),
            nullptr);
  // Chat displaces the NEWEST background first (3, then 2), then batch.
  auto victim = queue.EvictLowerPriority(TenantClass::kChat, policy);
  ASSERT_NE(victim, nullptr);
  EXPECT_EQ(victim->id, 3u);
  victim = queue.EvictLowerPriority(TenantClass::kChat, policy);
  ASSERT_NE(victim, nullptr);
  EXPECT_EQ(victim->id, 2u);
  victim = queue.EvictLowerPriority(TenantClass::kChat, policy);
  ASSERT_NE(victim, nullptr);
  EXPECT_EQ(victim->id, 4u);  // newest batch, not the older id 1
  // Batch can only displace background, and none is left.
  EXPECT_EQ(queue.EvictLowerPriority(TenantClass::kBatch, policy), nullptr);
  EXPECT_EQ(queue.size(), 1u);
}

TEST(TenantQueueTest, NonSheddableClassesAreNeverEvicted) {
  RequestQueue queue(2);
  TenantPolicy policy = TenantPolicy::Default();
  policy.classes[static_cast<size_t>(TenantClass::kBatch)].sheddable = false;
  ASSERT_TRUE(queue.Push(MakeState(1, TenantClass::kBatch)).ok());
  ASSERT_TRUE(queue.Push(MakeState(2, TenantClass::kBatch)).ok());
  EXPECT_EQ(queue.EvictLowerPriority(TenantClass::kChat, policy), nullptr);
  EXPECT_EQ(queue.size(), 2u);
}

TEST(TenantQueueTest, CloseDrainsLanesAndCountsStayConsistent) {
  RequestQueue queue(8);
  ASSERT_TRUE(queue.Push(MakeState(1, TenantClass::kBackground)).ok());
  ASSERT_TRUE(queue.Push(MakeState(2, TenantClass::kChat)).ok());
  queue.Close();
  EXPECT_EQ(queue.Push(MakeState(3, TenantClass::kChat)).code(),
            util::StatusCode::kFailedPrecondition);
  // Queued work survives Close for the drain path, in priority order.
  std::shared_ptr<RequestState> state;
  ASSERT_TRUE(queue.TryPop(&state));
  EXPECT_EQ(state->id, 2u);
  ASSERT_TRUE(queue.TryPop(&state));
  EXPECT_EQ(state->id, 1u);
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_FALSE(queue.WaitPop(&state));  // closed and empty: no block
}

// --- Server integration ----------------------------------------------------

nn::GPTConfig SmallConfig() {
  nn::GPTConfig cfg;
  cfg.vocab_size = 17;
  cfg.max_seq_len = 32;
  cfg.d_model = 24;
  cfg.n_layer = 2;
  cfg.n_head = 3;
  return cfg;
}

GenerateRequest MakeGreedy(std::vector<int64_t> prompt, uint64_t seed,
                           int64_t max_new, TenantClass tenant) {
  GenerateRequest request;
  request.prompt = std::move(prompt);
  request.seed = seed;
  request.max_new_tokens = max_new;
  request.sampler.temperature = 0.0f;  // greedy: resumable bit-for-bit
  request.tenant = tenant;
  return request;
}

std::vector<int64_t> SingleStreamReference(const nn::GPTModel& model,
                                           const GenerateRequest& request) {
  sample::GenerateOptions opts;
  opts.max_new_tokens = request.max_new_tokens;
  opts.sampler = request.sampler;
  opts.stop_token = request.stop_token;
  util::Rng rng(request.seed);
  return sample::GenerateCached(model, request.prompt, opts, &rng);
}

TEST(TenantServerTest, QuotaRejectsBackgroundWithoutStarvingOthers) {
  util::Rng rng(61);
  nn::GPTModel model(SmallConfig(), &rng);
  ServerOptions options;
  options.max_batch_size = 2;
  options.num_workers = 1;
  options.queue_capacity = 8;
  auto& background = options.tenants.classes[static_cast<size_t>(
      TenantClass::kBackground)];
  background.quota_tokens_per_sec = 0.01;  // effectively burst-only
  background.quota_burst_tokens = 12.0;
  // Quota isolation is the subject here, not degradation: pin background
  // as protected so a slow run can't preempt/shed bg1 mid-decode.
  background.sheddable = false;
  background.preemptible = false;
  InferenceServer server(&model, options);
  server.Start();

  // First background request fits the burst (2 prompt + 8 output = 10);
  // the second is refused at the door with ResourceExhausted.
  auto bg1 = server.Submit(MakeGreedy({1, 2}, 1, 8, TenantClass::kBackground));
  ASSERT_TRUE(bg1.ok());
  auto bg2 = server.Submit(MakeGreedy({1, 2}, 2, 8, TenantClass::kBackground));
  ASSERT_FALSE(bg2.ok());
  EXPECT_EQ(bg2.status().code(), util::StatusCode::kResourceExhausted);

  // The exhausted background quota must not affect chat or batch.
  auto chat = server.Submit(MakeGreedy({3}, 3, 6, TenantClass::kChat));
  auto batch = server.Submit(MakeGreedy({4}, 4, 6, TenantClass::kBatch));
  ASSERT_TRUE(chat.ok());
  ASSERT_TRUE(batch.ok());
  for (RequestId id : {bg1.value(), chat.value(), batch.value()}) {
    auto result = server.Wait(id);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().reason, FinishReason::kLength);
  }

  const ServerStats stats = server.Stats();
  const TenantClassStats& bg_stats =
      stats.classes[static_cast<size_t>(TenantClass::kBackground)];
  EXPECT_EQ(bg_stats.quota_rejected, 1u);
  EXPECT_EQ(bg_stats.completed, 1u);
  EXPECT_EQ(stats.classes[static_cast<size_t>(TenantClass::kChat)].completed,
            1u);
  EXPECT_EQ(stats.classes[static_cast<size_t>(TenantClass::kBatch)].completed,
            1u);
  server.Shutdown();
}

// A batch request whose on_token callback sleeps: holds its KV slot long
// enough for the test to stage a chat arrival against a busy server.
GenerateRequest SlowBatch(std::vector<int64_t> prompt, uint64_t seed,
                          int64_t max_new) {
  GenerateRequest request = MakeGreedy(std::move(prompt), seed, max_new,
                                       TenantClass::kBatch);
  request.on_token = [](RequestId, int64_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  };
  return request;
}

TEST(TenantServerTest, ChatPreemptsRunningBatchDecode) {
  util::Rng rng(62);
  nn::GPTModel model(SmallConfig(), &rng);
  ServerOptions options;
  options.max_batch_size = 1;  // one slot: chat MUST preempt to run
  options.num_workers = 1;
  options.queue_capacity = 4;
  InferenceServer server(&model, options);
  server.Start();

  const GenerateRequest batch = SlowBatch({5, 6}, 10, 24);
  const std::vector<int64_t> batch_reference =
      SingleStreamReference(model, batch);
  auto batch_id = server.Submit(batch);
  ASSERT_TRUE(batch_id.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // decoding

  const GenerateRequest chat = MakeGreedy({7}, 11, 4, TenantClass::kChat);
  RequestResult chat_result = server.GenerateBlocking(chat);
  EXPECT_EQ(chat_result.reason, FinishReason::kLength);
  EXPECT_EQ(chat_result.tokens, SingleStreamReference(model, chat));

  auto batch_result = server.Wait(batch_id.value());
  ASSERT_TRUE(batch_result.ok());
  EXPECT_EQ(batch_result.value().reason, FinishReason::kPreempted);
  EXPECT_EQ(batch_result.value().status.code(),
            util::StatusCode::kResourceExhausted);
  // The preempted partial output is a strict prefix of the batch
  // request's own single-stream reference — interrupted, not corrupted.
  const auto& partial = batch_result.value().tokens;
  EXPECT_LT(partial.size(), batch_reference.size());
  for (size_t i = 0; i < partial.size(); ++i) {
    EXPECT_EQ(partial[i], batch_reference[i]) << "token " << i;
  }

  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.preempted, 1u);
  EXPECT_EQ(stats.classes[static_cast<size_t>(TenantClass::kBatch)].preempted,
            1u);
  EXPECT_EQ(stats.classes[static_cast<size_t>(TenantClass::kChat)].completed,
            1u);
  EXPECT_EQ(stats.submitted, stats.completed + stats.cancelled +
                                 stats.expired + stats.failed +
                                 stats.preempted);
  EXPECT_EQ(stats.active_slots, 0);
  EXPECT_EQ(stats.free_slots, stats.total_slots);
  server.Shutdown();
}

TEST(TenantServerTest, VictimSlotLeakIsRepairedBeforeThePreemptorIsAdmitted) {
  // As above, but the victim's retirement — the first of the run — leaks
  // its slot (kSlotLeak). The one slot must be swept back into the pool
  // before the chat request is admitted into it, not after the next tick.
  struct DisarmOnExit {
    ~DisarmOnExit() { util::FaultInjector::Global().Disarm(); }
  } disarm;
  util::FaultInjector::Global().ArmAt(util::FaultSite::kSlotLeak, {0});
  util::Rng rng(62);
  nn::GPTModel model(SmallConfig(), &rng);
  ServerOptions options;
  options.max_batch_size = 1;
  options.num_workers = 1;
  options.queue_capacity = 4;
  InferenceServer server(&model, options);
  server.Start();

  auto batch_id = server.Submit(SlowBatch({5, 6}, 10, 24));
  ASSERT_TRUE(batch_id.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // decoding

  const GenerateRequest chat = MakeGreedy({7}, 11, 4, TenantClass::kChat);
  RequestResult chat_result = server.GenerateBlocking(chat);
  EXPECT_TRUE(chat_result.status.ok());
  EXPECT_EQ(chat_result.reason, FinishReason::kLength);
  EXPECT_EQ(chat_result.tokens, SingleStreamReference(model, chat));
  auto batch_result = server.Wait(batch_id.value());
  ASSERT_TRUE(batch_result.ok());
  EXPECT_EQ(batch_result.value().reason, FinishReason::kPreempted);
  EXPECT_EQ(util::FaultInjector::Global().Fired(util::FaultSite::kSlotLeak),
            1);

  EXPECT_TRUE(server.Drain(std::chrono::seconds(5)).ok());
  const ServerStats stats = server.Stats();
  EXPECT_GE(stats.leaks_repaired, 1u);
  EXPECT_EQ(stats.preempted, 1u);
  EXPECT_EQ(stats.submitted, stats.completed + stats.cancelled +
                                 stats.expired + stats.failed +
                                 stats.preempted);
  EXPECT_EQ(stats.active_slots, 0);
  EXPECT_EQ(stats.free_slots, stats.total_slots);
}

TEST(TenantServerTest, SurvivingBatchMatesStayBitExactThroughPreemption) {
  // Two slow batch decodes share the batch; a chat arrival preempts
  // exactly one. The survivor must still produce its single-stream
  // reference bit-for-bit: preemption frees a lane, it must not perturb
  // anyone else's KV cache or sampling stream.
  util::Rng rng(63);
  nn::GPTModel model(SmallConfig(), &rng);
  ServerOptions options;
  options.max_batch_size = 2;
  options.num_workers = 1;
  options.queue_capacity = 4;
  InferenceServer server(&model, options);
  server.Start();

  const GenerateRequest batch_a = SlowBatch({1, 2, 3}, 20, 24);
  const GenerateRequest batch_b = SlowBatch({4, 5}, 21, 24);
  const std::vector<int64_t> ref_a = SingleStreamReference(model, batch_a);
  const std::vector<int64_t> ref_b = SingleStreamReference(model, batch_b);
  auto id_a = server.Submit(batch_a);
  auto id_b = server.Submit(batch_b);
  ASSERT_TRUE(id_a.ok());
  ASSERT_TRUE(id_b.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // both decoding

  RequestResult chat_result =
      server.GenerateBlocking(MakeGreedy({9}, 22, 3, TenantClass::kChat));
  EXPECT_EQ(chat_result.reason, FinishReason::kLength);

  auto result_a = server.Wait(id_a.value());
  auto result_b = server.Wait(id_b.value());
  ASSERT_TRUE(result_a.ok());
  ASSERT_TRUE(result_b.ok());
  const bool a_preempted =
      result_a.value().reason == FinishReason::kPreempted;
  const bool b_preempted =
      result_b.value().reason == FinishReason::kPreempted;
  ASSERT_TRUE(a_preempted != b_preempted)
      << "exactly one batch mate should be preempted";
  const RequestResult& survivor =
      a_preempted ? result_b.value() : result_a.value();
  const std::vector<int64_t>& survivor_ref = a_preempted ? ref_b : ref_a;
  const RequestResult& victim =
      a_preempted ? result_a.value() : result_b.value();
  const std::vector<int64_t>& victim_ref = a_preempted ? ref_a : ref_b;
  EXPECT_EQ(survivor.reason, FinishReason::kLength);
  EXPECT_EQ(survivor.tokens, survivor_ref);
  ASSERT_LE(victim.tokens.size(), victim_ref.size());
  for (size_t i = 0; i < victim.tokens.size(); ++i) {
    EXPECT_EQ(victim.tokens[i], victim_ref[i]) << "victim token " << i;
  }
  server.Shutdown();
}

TEST(TenantServerTest, ChatArrivalShedsNewestQueuedBatch) {
  util::Rng rng(64);
  nn::GPTModel model(SmallConfig(), &rng);
  ServerOptions options;
  options.max_batch_size = 1;
  options.num_workers = 1;
  options.queue_capacity = 2;
  InferenceServer server(&model, options);
  server.Start();

  // One slow batch decode in the slot, two more filling the queue.
  auto running = server.Submit(SlowBatch({1}, 30, 24));
  ASSERT_TRUE(running.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  auto queued_old = server.Submit(SlowBatch({2}, 31, 8));
  auto queued_new = server.Submit(SlowBatch({3}, 32, 8));
  ASSERT_TRUE(queued_old.ok());
  ASSERT_TRUE(queued_new.ok());

  // The queue is full; a chat submit displaces the NEWEST queued batch
  // request rather than being bounced.
  auto chat = server.Submit(MakeGreedy({4}, 33, 3, TenantClass::kChat));
  ASSERT_TRUE(chat.ok());
  auto shed = server.Wait(queued_new.value());
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed.value().reason, FinishReason::kPreempted);
  EXPECT_TRUE(shed.value().tokens.empty());
  EXPECT_NE(shed.value().status.ToString().find("shed"), std::string::npos);

  auto chat_result = server.Wait(chat.value());
  ASSERT_TRUE(chat_result.ok());
  EXPECT_EQ(chat_result.value().reason, FinishReason::kLength);
  ASSERT_TRUE(server.Wait(queued_old.value()).ok());
  ASSERT_TRUE(server.Wait(running.value()).ok());

  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.classes[static_cast<size_t>(TenantClass::kBatch)].shed, 1u);
  EXPECT_EQ(stats.classes[static_cast<size_t>(TenantClass::kChat)].shed, 0u);
  EXPECT_EQ(stats.submitted, stats.completed + stats.cancelled +
                                 stats.expired + stats.failed +
                                 stats.preempted);
  server.Shutdown();
}

TEST(TenantServerTest, PerClassLatencyPercentilesAreRecorded) {
  util::Rng rng(65);
  nn::GPTModel model(SmallConfig(), &rng);
  ServerOptions options;
  options.max_batch_size = 2;
  options.num_workers = 1;
  InferenceServer server(&model, options);
  server.Start();
  std::vector<RequestId> ids;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    auto id = server.Submit(MakeGreedy({1, 2}, seed, 6, TenantClass::kChat));
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  for (RequestId id : ids) ASSERT_TRUE(server.Wait(id).ok());
  const ServerStats stats = server.Stats();
  const TenantClassStats& chat =
      stats.classes[static_cast<size_t>(TenantClass::kChat)];
  EXPECT_GT(chat.p50_ttft_ms, 0.0);
  EXPECT_GE(chat.p99_ttft_ms, chat.p50_ttft_ms);
  EXPECT_GT(chat.p50_tpot_ms, 0.0);  // 6 tokens each: TPOT well-defined
  EXPECT_GE(chat.p99_tpot_ms, chat.p50_tpot_ms);
  EXPECT_EQ(chat.tokens, 4u * 6u);
  server.Shutdown();
}

}  // namespace
}  // namespace llm::serve
