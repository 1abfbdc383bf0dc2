// Experiment X28 — multi-tenant overload control (paper §6: production
// serving multiplexes tenant classes with very different latency
// tolerances onto one fleet; overload must degrade the tolerant classes
// first, never the interactive ones).
//
// Two stages:
//
//  1. Calibrate: closed-loop batch-class clients saturate a 4-slot server
//     to measure its actual capacity (requests/sec and tokens/sec) on this
//     machine. Every offered rate below is expressed against that number,
//     so the storm is ~2.2x capacity regardless of host speed.
//
//  2. Storm: a deterministic, seeded workload — bursty open-loop chat at
//     ~0.4x capacity, closed-loop batch clients that alone would fill the
//     server (~1x), and open-loop background eval at ~0.8x throttled by a
//     tight token-rate quota — all fired at the same 4-slot, queue-8
//     server for 2 seconds.
//
// Gates (exit 1 on violation):
//   - chat p99 TTFT  <= 300 ms and p99 TPOT <= 150 ms (pinned SLOs);
//   - every shed and every preemption lands on batch/background — chat
//     sees neither;
//   - per-class and global conservation: submitted == completed +
//     cancelled + expired + failed + preempted, i.e. zero requests lost.
//
// Emits one BENCH_TENANTS JSON line plus the metrics registry snapshot.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/inference_server.h"
#include "serve/serving_model.h"
#include "serve/workload.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

llm::serve::ServerOptions StormOptions() {
  llm::serve::ServerOptions options;
  options.max_batch_size = 4;
  options.num_workers = 1;
  options.queue_capacity = 8;
  return options;
}

struct ClassGate {
  const char* name;
  bool ok;
};

}  // namespace

int main() {
  using llm::serve::TenantClass;
  llm::util::Rng rng(3);
  const llm::nn::GPTConfig cfg = llm::serve::ServingConfig();
  llm::nn::GPTModel model(cfg, &rng);
  std::printf("tenant bench: %lld params, vocab %lld, d_model %lld\n\n",
              static_cast<long long>(model.NumParameters()),
              static_cast<long long>(cfg.vocab_size),
              static_cast<long long>(cfg.d_model));

  // Pre-generated batch-class request pools. Drawing them up front keeps
  // the workload a pure function of the seed even with racing closed-loop
  // clients (WorkloadGenerator is not thread-safe).
  constexpr size_t kPoolSize = 512;
  std::vector<llm::serve::GenerateRequest> calibration_pool;
  std::vector<llm::serve::GenerateRequest> storm_pool;
  {
    llm::serve::WorkloadGenerator cal_gen({llm::serve::MakeBatchSpec(0.0)},
                                          cfg, /*seed=*/17);
    llm::serve::WorkloadGenerator storm_gen({llm::serve::MakeBatchSpec(0.0)},
                                            cfg, /*seed=*/23);
    for (size_t i = 0; i < kPoolSize; ++i) {
      calibration_pool.push_back(cal_gen.Sample(0));
      storm_pool.push_back(storm_gen.Sample(0));
    }
  }

  // ---- Stage 1: calibrate capacity with closed-loop batch clients. ----
  double capacity_rps = 0.0;
  double capacity_tps = 0.0;
  {
    llm::serve::InferenceServer server(&model, StormOptions());
    server.Start();
    constexpr int kClients = 4;
    constexpr double kCalSeconds = 0.6;
    std::atomic<size_t> next_request{0};
    std::atomic<int64_t> done_requests{0};
    std::atomic<int64_t> done_tokens{0};
    const auto cal_start = Clock::now();
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        while (SecondsSince(cal_start) < kCalSeconds) {
          const size_t i =
              next_request.fetch_add(1, std::memory_order_relaxed) % kPoolSize;
          llm::serve::RequestResult result =
              server.GenerateBlocking(calibration_pool[i]);
          if (result.status.ok()) {
            done_requests.fetch_add(1, std::memory_order_relaxed);
            done_tokens.fetch_add(static_cast<int64_t>(result.tokens.size()),
                                  std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& t : clients) t.join();
    const double secs = SecondsSince(cal_start);
    server.Shutdown();
    capacity_rps = static_cast<double>(done_requests.load()) / secs;
    capacity_tps = static_cast<double>(done_tokens.load()) / secs;
    std::printf(
        "{\"bench\":\"tenants\",\"mode\":\"calibrate\",\"seconds\":%.3f,"
        "\"capacity_requests_per_sec\":%.2f,\"capacity_tokens_per_sec\":%.1f}"
        "\n",
        secs, capacity_rps, capacity_tps);
    if (capacity_rps <= 0.0) {
      std::fprintf(stderr, "calibration produced no completions\n");
      return 1;
    }
  }

  // ---- Stage 2: the storm. ----
  constexpr double kStormMs = 2000.0;
  constexpr double kChatTtftSloMs = 300.0;
  constexpr double kChatTpotSloMs = 150.0;

  // Background gets a token-rate quota far below its offered load: roughly
  // two average background requests per second worth of tokens.
  llm::serve::ServerOptions options = StormOptions();
  options.tenants.classes[static_cast<size_t>(TenantClass::kBackground)]
      .quota_tokens_per_sec = 60.0;
  options.tenants.classes[static_cast<size_t>(TenantClass::kBackground)]
      .quota_burst_tokens = 120.0;

  llm::serve::WorkloadGenerator open_loop_gen(
      {llm::serve::MakeChatSpec(0.4 * capacity_rps),
       llm::serve::MakeBackgroundSpec(0.8 * capacity_rps)},
      cfg, /*seed=*/7);
  const std::vector<llm::serve::Arrival> schedule =
      open_loop_gen.OpenLoopSchedule(kStormMs);

  llm::serve::InferenceServer server(&model, options);
  server.Start();
  const auto storm_start = Clock::now();

  // Open-loop submitter: pace the merged chat+background schedule by its
  // arrival times; rejected submits are the server's call, not a retry.
  std::vector<llm::serve::RequestId> open_loop_ids;
  std::thread submitter([&] {
    for (const llm::serve::Arrival& arrival : schedule) {
      std::this_thread::sleep_until(
          storm_start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(
                                arrival.at_ms)));
      auto id = server.Submit(arrival.request);
      if (id.ok()) open_loop_ids.push_back(id.value());
    }
  });

  // Closed-loop batch clients: by construction they alone keep the server
  // at ~1x capacity, so chat + background push the total past 2x.
  constexpr int kBatchClients = 4;
  std::atomic<size_t> next_batch{0};
  std::vector<std::thread> batch_clients;
  for (int c = 0; c < kBatchClients; ++c) {
    batch_clients.emplace_back([&] {
      while (SecondsSince(storm_start) < kStormMs / 1000.0) {
        const size_t i =
            next_batch.fetch_add(1, std::memory_order_relaxed) % kPoolSize;
        (void)server.GenerateBlocking(storm_pool[i]);  // shed/preempt is fine
      }
    });
  }

  submitter.join();
  for (auto& t : batch_clients) t.join();
  for (llm::serve::RequestId id : open_loop_ids) {
    auto result = server.Wait(id);
    if (!result.ok()) {
      std::fprintf(stderr, "storm: Wait failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
  }
  const double storm_secs = SecondsSince(storm_start);
  const llm::serve::ServerStats stats = server.Stats();
  server.Shutdown();

  // ---- Gates. ----
  std::vector<ClassGate> gates;
  bool conserved = stats.submitted == stats.completed + stats.cancelled +
                                          stats.expired + stats.failed +
                                          stats.preempted;
  for (size_t c = 0; c < llm::serve::kNumTenantClasses; ++c) {
    const llm::serve::TenantClassStats& cs = stats.classes[c];
    conserved = conserved &&
                cs.submitted == cs.completed + cs.cancelled + cs.expired +
                                    cs.failed + cs.preempted;
  }
  const llm::serve::TenantClassStats& chat =
      stats.classes[static_cast<size_t>(TenantClass::kChat)];
  const llm::serve::TenantClassStats& batch =
      stats.classes[static_cast<size_t>(TenantClass::kBatch)];
  const llm::serve::TenantClassStats& background =
      stats.classes[static_cast<size_t>(TenantClass::kBackground)];
  gates.push_back({"conservation", conserved});
  gates.push_back({"chat_never_shed", chat.shed == 0 && chat.preempted == 0});
  gates.push_back({"chat_p99_ttft", chat.p99_ttft_ms <= kChatTtftSloMs});
  gates.push_back({"chat_p99_tpot",
                   chat.p99_tpot_ms <= kChatTpotSloMs});
  gates.push_back({"chat_served", chat.completed > 0});
  gates.push_back(
      {"background_quota_bites", background.quota_rejected > 0});

  const double offered_x =
      capacity_rps > 0.0
          ? (0.4 * capacity_rps + 0.8 * capacity_rps + capacity_rps) /
                capacity_rps
          : 0.0;
  std::printf(
      "BENCH_TENANTS {\"bench\":\"tenants\",\"mode\":\"storm\","
      "\"seconds\":%.3f,\"offered_x_capacity\":%.1f,"
      "\"slo_ttft_ms\":%.0f,\"slo_tpot_ms\":%.0f,"
      "\"chat\":{\"submitted\":%llu,\"completed\":%llu,\"shed\":%llu,"
      "\"preempted\":%llu,\"p50_ttft_ms\":%.1f,\"p99_ttft_ms\":%.1f,"
      "\"p50_tpot_ms\":%.1f,\"p99_tpot_ms\":%.1f},"
      "\"batch\":{\"submitted\":%llu,\"completed\":%llu,\"shed\":%llu,"
      "\"preempted\":%llu,\"p99_ttft_ms\":%.1f},"
      "\"background\":{\"submitted\":%llu,\"quota_rejected\":%llu,"
      "\"completed\":%llu,\"shed\":%llu,\"preempted\":%llu},"
      "\"conserved\":%s,\"health\":\"%s\"}\n",
      storm_secs, offered_x, kChatTtftSloMs, kChatTpotSloMs,
      static_cast<unsigned long long>(chat.submitted),
      static_cast<unsigned long long>(chat.completed),
      static_cast<unsigned long long>(chat.shed),
      static_cast<unsigned long long>(chat.preempted), chat.p50_ttft_ms,
      chat.p99_ttft_ms, chat.p50_tpot_ms, chat.p99_tpot_ms,
      static_cast<unsigned long long>(batch.submitted),
      static_cast<unsigned long long>(batch.completed),
      static_cast<unsigned long long>(batch.shed),
      static_cast<unsigned long long>(batch.preempted), batch.p99_ttft_ms,
      static_cast<unsigned long long>(background.submitted),
      static_cast<unsigned long long>(background.quota_rejected),
      static_cast<unsigned long long>(background.completed),
      static_cast<unsigned long long>(background.shed),
      static_cast<unsigned long long>(background.preempted),
      conserved ? "true" : "false", llm::serve::ServerHealthName(stats.health));

  llm::serve::ExportServerStats(stats, "serve",
                                &llm::obs::MetricsRegistry::Global());
  std::printf("METRICS %s\n",
              llm::obs::MetricsRegistry::Global().JsonSnapshot().c_str());

  bool all_ok = true;
  for (const ClassGate& gate : gates) {
    std::printf("gate %-24s %s\n", gate.name, gate.ok ? "PASS" : "FAIL");
    all_ok = all_ok && gate.ok;
  }
  return all_ok ? 0 : 1;
}
