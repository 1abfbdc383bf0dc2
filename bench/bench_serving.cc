// Experiment X26 — batched serving throughput (paper §6: production
// inference batches concurrent requests so every weight row streamed from
// memory is reused across the batch).
//
// Offered-load sweep over the continuous-batching InferenceServer: at each
// load L the server gets L KV slots and 8 requests; the baseline is the
// same 8 requests run one after another on a dedicated single-stream
// session (sample::GenerateCached). Two properties are on trial:
//
//  1. Throughput: aggregate tokens/sec at batch 8 must be >= 3x the
//     sequential single-stream rate — on a single core, so the win comes
//     from the fused batched step (weight reuse + lane-vectorized
//     unembedding), not thread fan-out.
//  2. Determinism: every request's tokens must be bit-identical to its
//     dedicated single-stream run, whatever the batch composition.
//
// Each sweep point prints one machine-readable JSON line.
//
// A final overload stage pushes offered load past capacity (more
// concurrent requests than queue + slots, a slice of them on tight
// deadlines, plus a low-rate injected poisoned-lane fault) and reports the
// shed rate, failure isolation counts, and tail latency as a
// `BENCH_SERVING` JSON line — the degradation curve under pressure, not
// just the happy-path speedup.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "sample/sampler.h"
#include "serve/inference_server.h"
#include "util/fault.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// GPT-2-small-proportioned toy: BPE-scale vocabulary, narrow trunk. The
// wide tied unembedding dominates per-token cost exactly as in real
// models, which is what makes the serving comparison honest.
llm::nn::GPTConfig ServingConfig() {
  llm::nn::GPTConfig cfg;
  cfg.vocab_size = 32768;
  cfg.max_seq_len = 48;
  cfg.d_model = 256;
  cfg.n_layer = 2;
  cfg.n_head = 8;
  cfg.tie_embeddings = true;
  return cfg;
}

std::vector<llm::serve::GenerateRequest> MakeWorkload() {
  std::vector<llm::serve::GenerateRequest> requests;
  for (uint64_t i = 0; i < 8; ++i) {
    llm::serve::GenerateRequest request;
    request.prompt = {static_cast<int64_t>(1 + 97 * i),
                      static_cast<int64_t>(5 + 131 * i),
                      static_cast<int64_t>(11 + 17 * i)};
    request.max_new_tokens = 40;
    request.seed = 1000 + i;
    request.sampler.temperature = 0.8f;  // plain temperature sampling
    requests.push_back(std::move(request));
  }
  return requests;
}

// One full batch-8 workload pass with telemetry either fully on (flight
// recorder + profiling timers + a per-request trace) or fully off.
// Returns aggregate tokens/sec; sets *exact if outputs matched the
// single-stream reference.
double RunTelemetryRep(const llm::nn::GPTModel& model,
                       const std::vector<llm::serve::GenerateRequest>& requests,
                       const std::vector<std::vector<int64_t>>& reference,
                       bool telemetry, bool* exact) {
  llm::obs::FlightRecorder::Global().SetEnabled(telemetry);
  llm::obs::EnableProfiling(telemetry);
  llm::serve::ServerOptions options;
  options.max_batch_size = 8;
  options.num_workers = 1;
  options.queue_capacity = 16;
  llm::serve::InferenceServer server(&model, options);
  server.Start();
  const auto start = Clock::now();
  std::vector<llm::serve::RequestId> ids;
  for (auto request : requests) {
    request.trace = telemetry;
    auto id = server.Submit(std::move(request));
    if (!id.ok()) return 0.0;
    ids.push_back(id.value());
  }
  int64_t tokens = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    auto result = server.Wait(ids[i]);
    if (!result.ok() || !result.value().status.ok()) return 0.0;
    tokens += static_cast<int64_t>(result.value().tokens.size());
    *exact = *exact && result.value().tokens == reference[i];
  }
  return static_cast<double>(tokens) / SecondsSince(start);
}

}  // namespace

int main() {
  llm::util::Rng rng(3);
  const llm::nn::GPTConfig cfg = ServingConfig();
  llm::nn::GPTModel model(cfg, &rng);
  std::printf(
      "serving bench: %lld params, vocab %lld, d_model %lld, window %lld\n\n",
      static_cast<long long>(model.NumParameters()),
      static_cast<long long>(cfg.vocab_size),
      static_cast<long long>(cfg.d_model),
      static_cast<long long>(cfg.max_seq_len));

  const std::vector<llm::serve::GenerateRequest> requests = MakeWorkload();

  // Baseline: the 8 requests served one at a time, each on its own
  // dedicated session — what a batch-less server would do.
  std::vector<std::vector<int64_t>> reference;
  int64_t baseline_tokens = 0;
  const auto baseline_start = Clock::now();
  for (const auto& request : requests) {
    llm::sample::GenerateOptions opts;
    opts.max_new_tokens = request.max_new_tokens;
    opts.sampler = request.sampler;
    opts.stop_token = request.stop_token;
    llm::util::Rng request_rng(request.seed);
    reference.push_back(
        llm::sample::GenerateCached(model, request.prompt, opts, &request_rng));
    baseline_tokens += static_cast<int64_t>(reference.back().size());
  }
  const double baseline_secs = SecondsSince(baseline_start);
  const double baseline_tps =
      static_cast<double>(baseline_tokens) / baseline_secs;
  std::printf(
      "{\"bench\":\"serving\",\"mode\":\"single_stream\",\"requests\":%zu,"
      "\"tokens\":%lld,\"seconds\":%.3f,\"tokens_per_sec\":%.1f}\n",
      requests.size(), static_cast<long long>(baseline_tokens), baseline_secs,
      baseline_tps);

  // Offered-load sweep: same 8 requests, L KV slots.
  double speedup_at_8 = 0.0;
  bool all_exact = true;
  for (int64_t load : {1, 2, 4, 8}) {
    llm::serve::ServerOptions options;
    options.max_batch_size = load;
    options.num_workers = 1;
    options.queue_capacity = 16;
    llm::serve::InferenceServer server(&model, options);
    server.Start();

    const auto start = Clock::now();
    std::vector<llm::serve::RequestId> ids;
    for (const auto& request : requests) {
      auto id = server.Submit(request);
      if (!id.ok()) {
        std::fprintf(stderr, "submit failed: %s\n",
                     id.status().ToString().c_str());
        return 1;
      }
      ids.push_back(id.value());
    }
    int64_t tokens = 0;
    bool exact = true;
    for (size_t i = 0; i < ids.size(); ++i) {
      auto result = server.Wait(ids[i]);
      if (!result.ok() || !result.value().status.ok()) {
        std::fprintf(stderr, "request %zu failed\n", i);
        return 1;
      }
      tokens += static_cast<int64_t>(result.value().tokens.size());
      exact = exact && result.value().tokens == reference[i];
    }
    const double secs = SecondsSince(start);
    const double tps = static_cast<double>(tokens) / secs;
    const double speedup = tps / baseline_tps;
    if (load == 8) speedup_at_8 = speedup;
    all_exact = all_exact && exact;
    const llm::serve::ServerStats stats = server.Stats();
    std::printf(
        "{\"bench\":\"serving\",\"mode\":\"continuous_batching\","
        "\"offered_load\":%lld,\"requests\":%zu,\"tokens\":%lld,"
        "\"seconds\":%.3f,\"tokens_per_sec\":%.1f,"
        "\"speedup_vs_single_stream\":%.2f,\"p50_ms\":%.1f,\"p95_ms\":%.1f,"
        "\"p99_ms\":%.1f,\"exact_match\":%s}\n",
        static_cast<long long>(load), requests.size(),
        static_cast<long long>(tokens), secs, tps, speedup,
        stats.p50_latency_ms, stats.p95_latency_ms, stats.p99_latency_ms,
        exact ? "true" : "false");
  }

  std::printf("\nbatch-8 aggregate speedup vs sequential single-stream: "
              "%.2fx (target >= 3x), outputs %s\n",
              speedup_at_8, all_exact ? "bit-identical" : "MISMATCH (bug!)");
  if (!all_exact) return 1;

  // Telemetry overhead stage: the same batch-8 workload with the whole
  // observability stack hot (flight recorder, profiling timers, a span
  // tree per request) vs everything off. Reps alternate off/on so thermal
  // and cache drift hits both arms equally; best-of is compared, since
  // the minimum is the least noisy estimator of attainable throughput.
  // Missing the 2% target fails the bench, after the overload stage has
  // still run and reported.
  bool telemetry_over_target = false;
  {
    bool telemetry_exact = true;
    double best_off = 0.0, best_on = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      best_off = std::max(best_off, RunTelemetryRep(model, requests, reference,
                                                    false, &telemetry_exact));
      best_on = std::max(best_on, RunTelemetryRep(model, requests, reference,
                                                  true, &telemetry_exact));
    }
    llm::obs::FlightRecorder::Global().SetEnabled(true);
    llm::obs::EnableProfiling(false);
    if (best_off <= 0.0 || best_on <= 0.0 || !telemetry_exact) {
      std::fprintf(stderr, "telemetry overhead stage failed\n");
      return 1;
    }
    const double overhead_pct = (best_off - best_on) / best_off * 100.0;
    std::printf(
        "{\"bench\":\"serving\",\"mode\":\"telemetry_overhead\","
        "\"tokens_per_sec_off\":%.1f,\"tokens_per_sec_on\":%.1f,"
        "\"overhead_pct\":%.2f,\"target_pct\":2.0,\"exact_match\":true}\n",
        best_off, best_on, overhead_pct);
    telemetry_over_target = overhead_pct >= 2.0;
    std::printf("telemetry overhead: %.2f%% (target < 2%%)%s\n", overhead_pct,
                telemetry_over_target ? "  ** OVER TARGET **" : "");
  }

  // Overload stage: 32 requests thrown at a 4-slot server with an 8-deep
  // queue as fast as the client can submit — offered load far past
  // capacity, so bounded admission must shed. A quarter of the requests
  // carry deadlines too tight to always make it, and kDecodeNaN fires at a
  // 2% rate to exercise poisoned-lane isolation under pressure. The
  // interesting outputs: how much load was shed at the door, how many
  // faults were isolated, and what the p99 looked like for the survivors.
  {
    llm::util::FaultInjector::Global().ArmRandom(
        llm::util::FaultSite::kDecodeNaN, 0.02, 11);
    llm::serve::ServerOptions options;
    options.max_batch_size = 4;
    options.num_workers = 1;
    options.queue_capacity = 8;
    llm::serve::InferenceServer server(&model, options);
    server.Start();

    constexpr int kOffered = 32;
    std::vector<llm::serve::RequestId> ids;
    const auto start = Clock::now();
    for (int i = 0; i < kOffered; ++i) {
      llm::serve::GenerateRequest request;
      request.prompt = {static_cast<int64_t>(1 + 97 * i) % cfg.vocab_size,
                        static_cast<int64_t>(5 + 131 * i) % cfg.vocab_size};
      request.max_new_tokens = 16;
      request.seed = 5000 + static_cast<uint64_t>(i);
      request.sampler.temperature = 0.8f;
      if (i % 4 == 0) request.timeout = std::chrono::milliseconds(400);
      auto id = server.Submit(request);
      if (id.ok()) ids.push_back(id.value());
    }
    for (llm::serve::RequestId id : ids) {
      auto result = server.Wait(id);
      if (!result.ok()) {
        std::fprintf(stderr, "overload: Wait failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
    }
    const double secs = SecondsSince(start);
    const llm::serve::ServerStats stats = server.Stats();
    // Snapshot fault activity into the registry before Disarm resets it.
    llm::obs::PublishFaultMetrics(&llm::obs::MetricsRegistry::Global());
    llm::util::FaultInjector::Global().Disarm();

    const uint64_t offered = stats.submitted + stats.rejected;
    const double shed_rate =
        offered > 0 ? static_cast<double>(stats.rejected) /
                          static_cast<double>(offered)
                    : 0.0;
    std::printf(
        "BENCH_SERVING {\"bench\":\"serving\",\"mode\":\"overload\","
        "\"offered\":%llu,\"accepted\":%llu,\"rejected\":%llu,"
        "\"shed_rate\":%.3f,\"completed\":%llu,\"expired\":%llu,"
        "\"failed\":%llu,\"seconds\":%.3f,\"tokens_per_sec\":%.1f,"
        "\"p50_ms\":%.1f,\"p99_ms\":%.1f,\"health\":\"%s\"}\n",
        static_cast<unsigned long long>(offered),
        static_cast<unsigned long long>(stats.submitted),
        static_cast<unsigned long long>(stats.rejected), shed_rate,
        static_cast<unsigned long long>(stats.completed),
        static_cast<unsigned long long>(stats.expired),
        static_cast<unsigned long long>(stats.failed), secs,
        stats.tokens_per_sec, stats.p50_latency_ms, stats.p99_latency_ms,
        llm::serve::ServerHealthName(stats.health));

    // Conservation must hold even at the edge of capacity.
    if (stats.submitted != stats.completed + stats.cancelled + stats.expired +
                               stats.failed + stats.preempted) {
      std::fprintf(stderr, "overload: conservation invariant violated\n");
      return 1;
    }

    // Everything the registry accumulated over the run — overload-stage
    // server stats as gauges, tick/decode histograms, fault activity —
    // as one machine-readable line.
    llm::serve::ExportServerStats(stats, "serve",
                                  &llm::obs::MetricsRegistry::Global());
    std::printf("METRICS %s\n",
                llm::obs::MetricsRegistry::Global().JsonSnapshot().c_str());
  }
  if (telemetry_over_target) {
    std::fprintf(stderr, "telemetry overhead over its 2%% target\n");
    return 1;
  }
  return 0;
}
