// End-to-end serving benchmark: one process drives the public
// InferenceServer API with one of four traffic mixes and reports what a
// user of the server sees, plus (with --trace) what each layer under it
// costs. README.md has the workload reasons, the metric tables and the
// layer -> end-to-end map.
//
//   bench_e2e --workload=<name> --seed=<n> [--seconds=<n>] [--trace]
//             [--trace-out=PATH]
//   bench_e2e --list
//
// Prints one `BENCH_E2E {...}` line holding every metric by name, unit and
// direction; exits 1 if a correctness check failed, 2 on bad flags. The
// seed changes only the generated requests: the model weights, the server
// options and the timing are the same for every seed.
//
// A run first times several cold set-ups, each in a fresh copy of this
// program (setup_s is their median). It then sets the server up once more,
// sends 2 s of the workload's traffic as warm-up, measures a window of
// --seconds, and keeps the traffic going 1 s past the window so requests
// due near its end are served under the same load. A request belongs to
// the window when it was due inside it. The open-loop workloads then run a
// closed loop of the same request shape for capacity_rps. Afterwards every
// 16th request is re-run through sample::GenerateCached and must match
// token for token.
//
// setup_s is scaled by a host-speed reference (host_speed.h) timed right
// before each set-up, so that it compares across runs on a host whose
// speed drifts; its raw value is per-layer.
//
// --trace runs the same workload, seed and window twice: once untraced
// (for obs.trace_overhead_pct) and once with obs::EnableProfiling on and
// Stats() sampled every 10 ms; it then times direct calls into the decode
// kernel, the single-stream session and the sampler on the same model.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "host_speed.h"
#include "nn/batched_decode.h"
#include "nn/gpt_inference.h"
#include "obs/metrics.h"
#include "sample/sampler.h"
#include "serve/inference_server.h"
#include "serve/kv_cache_pool.h"
#include "serve/workload.h"
#include "stats.h"
#include "util/rng.h"

extern char** environ;

namespace llm::bench_e2e {
namespace {

using std::chrono::milliseconds;

// Weights come from a fixed seed so that --seed changes only the inputs.
constexpr uint64_t kWeightSeed = 3;
constexpr double kWarmupS = 2.0;
constexpr double kTailS = 1.0;
// Closed loops keep this many requests outstanding: one per batch slot.
constexpr int kClosedLoopClients = 8;
// The open-loop workloads' capacity pass: warm-up, then the window.
constexpr double kCapacityWarmupS = 1.0;
constexpr double kCapacityS = 8.0;
constexpr double kCapacityPieceS = 0.5;
constexpr int kSetups = 7;
// setup_s is the set-up time of a host on which HostReferenceMs() reads
// this.
constexpr double kReferenceMs = 30.0;
// Every kCheckEvery-th request sent is re-run on a dedicated session.
constexpr size_t kCheckEvery = 16;
// A percentile needs this many samples in the window, or the run fails.
constexpr size_t kMinSamples = 100;
constexpr auto kStatsPeriod = milliseconds(10);
// The closed loop looks for requests that ended without their last token
// (failed, expired) this often, so a failure cannot stall it.
constexpr auto kPollPeriod = milliseconds(100);
// Direct layer timings: one untimed pass, then the median of these.
constexpr int kLayerPasses = 3;

constexpr const char* kWorkloads[] = {"decode_steady", "prefill_long",
                                      "prefix_shared", "chat_mix"};

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
  bool end_to_end;  // else per-layer: printed by --trace runs, no bound
};

// The order here is the order of --list, which must match BENCHMARK.json.
constexpr MetricDef kMetrics[] = {
    {"setup_s", "s", "lower", true},
    {"peak_rss_mb", "MB", "lower", true},
    // setup_s before host-speed scaling, and the reference itself.
    {"setup_raw_s", "s", "lower", false},
    {"host.reference_ms", "ms", "lower", false},
    // Measured with tracing off like the two above, but on a shared host
    // they spread too widely from run to run to carry a bound (README.md).
    {"capacity_rps", "req/s", "higher", false},
    {"output_tok_s", "tok/s", "higher", false},
    {"ttft_p50_ms", "ms", "lower", false},
    {"ttft_p90_ms", "ms", "lower", false},
    {"itl_p50_ms", "ms", "lower", false},
    {"itl_p90_ms", "ms", "lower", false},
    // 0 on every healthy run, so it cannot carry a relative bound; a
    // failed request also shows in the run's `failed` count.
    {"error_rate", "share", "lower", false},
    {"client.sent", "count", "higher", false},
    {"client.completed", "count", "higher", false},
    {"client.failed", "count", "lower", false},
    {"client.gen_lag_p99_ms", "ms", "lower", false},
    {"client.submit_us_p50", "us", "lower", false},
    {"client.submit_us_p99", "us", "lower", false},
    {"client.ttft_p99_ms", "ms", "lower", false},
    {"client.itl_p99_ms", "ms", "lower", false},
    {"serve.queue_wait_ms_p50", "ms", "lower", false},
    {"serve.queue_wait_ms_p90", "ms", "lower", false},
    {"serve.prefill_ms_p50", "ms", "lower", false},
    {"serve.ticks", "count", "higher", false},
    {"serve.tick_ms_mean", "ms", "lower", false},
    {"serve.lanes_per_tick", "lanes", "higher", false},
    {"serve.tick_gap_ms_mean", "ms", "lower", false},
    {"serve.active_slots_mean", "slots", "lower", false},
    {"serve.queue_depth_mean", "requests", "lower", false},
    {"serve.queue_depth_max", "requests", "lower", false},
    {"serve.busy_share", "share", "lower", false},
    {"nn.decode_step_ms_mean", "ms", "lower", false},
    {"nn.decode_us_per_lane", "us", "lower", false},
    {"nn.weight_gb_s", "GB/s", "higher", false},
    {"nn.batched_b1_ms", "ms", "lower", false},
    {"nn.session_append_ms", "ms", "lower", false},
    {"nn.batched_b8_ms", "ms", "lower", false},
    {"sample.greedy_us", "us", "lower", false},
    {"sample.temp_us", "us", "lower", false},
    {"sample.top_p_us", "us", "lower", false},
    {"kv.reserved_mb", "MB", "lower", false},
    {"obs.trace_overhead_pct", "%", "lower", false},
    {"workload.prefill_share", "share", "lower", false},
    {"workload.shared_prefix_share", "share", "higher", false},
    {"workload.mean_prompt_tokens", "tokens", "lower", false},
    {"workload.mean_output_tokens", "tokens", "higher", false},
    {"workload.offered_rps", "req/s", "higher", false},
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 15;
  bool trace = false;
  std::string trace_out;
  bool list = false;
  bool setup_only = false;  // internal: one cold set-up, timed by the parent
};

using Metrics = std::map<std::string, double>;

// bench_serving's model: a BPE-scale vocabulary on a narrow trunk, so the
// tied unembedding dominates per-token cost as it does in real models.
nn::GPTConfig ServingConfig() {
  nn::GPTConfig cfg;
  cfg.vocab_size = 32768;
  cfg.max_seq_len = 48;
  cfg.d_model = 256;
  cfg.n_layer = 2;
  cfg.n_head = 8;
  cfg.tie_embeddings = true;
  return cfg;
}

// Client, scheduler and one worker: 3 threads on a 4-core host.
serve::ServerOptions ServerConfig() {
  serve::ServerOptions options;
  options.max_batch_size = 8;
  options.num_workers = 1;
  options.queue_capacity = 64;
  return options;
}

// ---------------------------------------------------------------------------
// Traffic. Each workload exercises one mechanism and bypasses the others;
// README.md gives the reasons.

// A closed loop's requests: each call returns the next one.
using RequestSource = std::function<serve::GenerateRequest()>;

std::vector<int64_t> RandomTokens(int64_t n, int64_t vocab, util::Rng* rng) {
  std::vector<int64_t> tokens(static_cast<size_t>(n));
  for (int64_t& t : tokens) {
    t = static_cast<int64_t>(rng->UniformInt(static_cast<uint64_t>(vocab)));
  }
  return tokens;
}

// decode_steady: 4-token prompts and 24-44 temperature-sampled tokens, so
// about 90% of lane-steps decode and requests do not finish in lockstep.
serve::GenerateRequest DecodeSteadyRequest(int64_t vocab, util::Rng* rng) {
  serve::GenerateRequest request;
  request.prompt = RandomTokens(4, vocab, rng);
  request.max_new_tokens = 24 + static_cast<int64_t>(rng->UniformInt(21));
  request.sampler.temperature = 0.8f;
  request.seed = rng->NextU64();
  return request;
}

// A Poisson process conditioned on exactly rate x duration arrivals, whose
// times are then uniform order statistics: every seed offers the same load,
// and seeds change only when requests arrive and what they hold.
std::vector<double> PoissonArrivalsMs(double per_sec, double duration_ms,
                                      util::Rng* rng) {
  std::vector<double> at(
      static_cast<size_t>(std::llround(per_sec * duration_ms / 1000.0)));
  for (double& t : at) t = rng->Uniform() * duration_ms;
  std::sort(at.begin(), at.end());
  return at;
}

// prefill_long / prefix_shared: 8 req/s, prompts of 32-40 tokens, 4 greedy
// tokens out, so about 90% of lane-steps are prefill. prefix_shared starts
// each prompt with one of 4 fixed 32-token system prompts and appends 0-8
// unique tokens: the same length distribution, about 88% of it shared.
std::vector<std::vector<int64_t>> SystemPrompts(int64_t vocab,
                                                util::Rng* content) {
  std::vector<std::vector<int64_t>> system_prompts;
  for (int i = 0; i < 4; ++i) {
    system_prompts.push_back(RandomTokens(32, vocab, content));
  }
  return system_prompts;
}

serve::GenerateRequest PrefillRequest(
    bool shared, const std::vector<std::vector<int64_t>>& system_prompts,
    int64_t vocab, util::Rng* content) {
  serve::GenerateRequest request;
  if (shared) {
    request.prompt = system_prompts[content->UniformInt(4)];
    const std::vector<int64_t> suffix = RandomTokens(
        static_cast<int64_t>(content->UniformInt(9)), vocab, content);
    request.prompt.insert(request.prompt.end(), suffix.begin(), suffix.end());
  } else {
    request.prompt = RandomTokens(
        32 + static_cast<int64_t>(content->UniformInt(9)), vocab, content);
  }
  request.max_new_tokens = 4;
  request.sampler.temperature = 0.0f;
  request.seed = content->NextU64();
  return request;
}

// chat_mix: WorkloadGenerator's chat shape (top-p sampling) and batch shape
// under one burst envelope. Everything is tagged with the default class, so
// at this load nothing is shed or preempted.
std::vector<serve::TenantLoadSpec> ChatMixSpecs() {
  serve::TenantLoadSpec chat = serve::MakeChatSpec(15.0);
  serve::TenantLoadSpec batch = serve::MakeBatchSpec(3.75);
  for (serve::TenantLoadSpec* spec : {&chat, &batch}) {
    spec->burst_amplitude = 0.8;
    spec->burst_period_ms = 400.0;
  }
  return {chat, batch};
}

void TagChatMix(serve::GenerateRequest* request) {
  if (request->tenant == serve::TenantClass::kChat) {
    request->sampler.top_p = 0.9f;
  }
  request->tenant = serve::TenantClass::kChat;
}

std::vector<serve::Arrival> OpenLoopArrivals(const std::string& workload,
                                             const nn::GPTConfig& cfg,
                                             uint64_t seed,
                                             double duration_ms) {
  if (workload == "chat_mix") {
    serve::WorkloadGenerator generator(ChatMixSpecs(), cfg, seed);
    std::vector<serve::Arrival> schedule =
        generator.OpenLoopSchedule(duration_ms);
    for (serve::Arrival& arrival : schedule) TagChatMix(&arrival.request);
    return schedule;
  }
  util::Rng root(seed);
  util::Rng arrivals = root.Fork();
  util::Rng content = root.Fork();
  const bool shared = workload == "prefix_shared";
  const std::vector<std::vector<int64_t>> system_prompts =
      SystemPrompts(cfg.vocab_size, &content);
  std::vector<serve::Arrival> schedule;
  for (double at_ms : PoissonArrivalsMs(8.0, duration_ms, &arrivals)) {
    schedule.push_back(
        {at_ms, PrefillRequest(shared, system_prompts, cfg.vocab_size,
                               &content)});
  }
  return schedule;
}

// The workload's request shape as an endless stream: decode_steady's own
// traffic, and the capacity pass of the open-loop workloads, where chat_mix
// mixes its two shapes in the ratio of their rates.
RequestSource ClosedLoopSource(const std::string& workload,
                               const nn::GPTConfig& cfg, uint64_t seed) {
  util::Rng rng(seed);
  const int64_t vocab = cfg.vocab_size;
  if (workload == "decode_steady") {
    return [rng, vocab]() mutable { return DecodeSteadyRequest(vocab, &rng); };
  }
  if (workload == "chat_mix") {
    const std::vector<serve::TenantLoadSpec> specs = ChatMixSpecs();
    const double chat_share =
        specs[0].arrivals_per_sec /
        (specs[0].arrivals_per_sec + specs[1].arrivals_per_sec);
    serve::WorkloadGenerator generator(specs, cfg, rng.NextU64());
    return [rng, generator, chat_share]() mutable {
      serve::GenerateRequest request =
          generator.Sample(rng.Bernoulli(chat_share) ? 0 : 1);
      TagChatMix(&request);
      return request;
    };
  }
  const bool shared = workload == "prefix_shared";
  const std::vector<std::vector<int64_t>> system_prompts =
      SystemPrompts(vocab, &rng);
  return [rng, vocab, shared, system_prompts]() mutable {
    return PrefillRequest(shared, system_prompts, vocab, &rng);
  };
}

// ---------------------------------------------------------------------------
// One pass of a workload against a running server.

struct Sent {
  serve::GenerateRequest request;  // as sent, without the callback
  size_t expected_tokens = 0;
  bool measured = false;  // due inside the window
  bool accepted = false;
  bool collected = false;  // result filled in
  serve::RequestId id = 0;
  RequestTimes times;
  std::vector<int64_t> streamed;
  serve::RequestResult result;
};

struct Pass {
  Clock::time_point start;
  Window window;
  std::deque<Sent> sent;  // a deque: callbacks hold element addresses
  // Traced passes only. The histogram snapshots are taken at the first
  // client wake-up at or after each window edge; `hist_window` holds when.
  Window hist_window;
  int marks = 0;
  obs::HistogramSnapshot tick[2];
  obs::HistogramSnapshot decode[2];
  std::vector<double> queue_depth;
  std::vector<double> active_slots;
};

size_t ExpectedTokens(const serve::GenerateRequest& request,
                      const nn::GPTConfig& cfg) {
  const int64_t room =
      cfg.max_seq_len - static_cast<int64_t>(request.prompt.size());
  return static_cast<size_t>(std::min(request.max_new_tokens, room));
}

// What one pass sends, and when it measures.
struct PassPlan {
  double warmup_s = 0.0;
  double window_s = 0.0;
  double tail_s = 0.0;  // traffic keeps going this long after the window
  bool traced = false;
  // A closed loop of kClosedLoopClients when set; else the open-loop
  // schedule in `arrivals`.
  RequestSource source;
  std::vector<serve::Arrival> arrivals;
};

// The workload's measured pass: its own traffic over --seconds.
PassPlan MainPlan(const Options& opt, const nn::GPTConfig& cfg, bool traced) {
  PassPlan plan;
  plan.warmup_s = kWarmupS;
  plan.window_s = opt.seconds;
  plan.tail_s = kTailS;
  plan.traced = traced;
  if (opt.workload == "decode_steady") {
    plan.source = ClosedLoopSource(opt.workload, cfg, opt.seed);
  } else {
    plan.arrivals = OpenLoopArrivals(
        opt.workload, cfg, opt.seed,
        (plan.warmup_s + plan.window_s + plan.tail_s) * 1000.0);
  }
  return plan;
}

// An open-loop workload's capacity pass: its request shape in a closed
// loop, drawn from a stream of its own so that no prompt repeats one of the
// measured pass.
PassPlan CapacityPlan(const Options& opt, const nn::GPTConfig& cfg) {
  PassPlan plan;
  plan.warmup_s = kCapacityWarmupS;
  plan.window_s = kCapacityS;
  plan.source =
      ClosedLoopSource(opt.workload, cfg, opt.seed ^ 0x9e3779b97f4a7c15ULL);
  return plan;
}

Pass RunPass(serve::InferenceServer* server, const nn::GPTConfig& cfg,
             const PassPlan& plan) {
  Pass pass;
  const bool closed_loop = static_cast<bool>(plan.source);
  const bool traced = plan.traced;
  const double duration_ms =
      (plan.warmup_s + plan.window_s + plan.tail_s) * 1000.0;

  obs::Histogram* tick_hist =
      obs::MetricsRegistry::Global().GetHistogram("serve.tick_ms");
  obs::Histogram* decode_hist =
      obs::MetricsRegistry::Global().GetHistogram("nn.decode_step_ms");
  obs::EnableProfiling(traced);

  // Closed loop: the on_token callback reports a request's last token.
  std::mutex mu;
  std::condition_variable cv;
  std::vector<size_t> finished;  // guarded by mu

  pass.start = Clock::now();
  const auto at = [&](double offset_ms) {
    return pass.start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(offset_ms));
  };
  pass.window = {at(plan.warmup_s * 1000.0),
                 at((plan.warmup_s + plan.window_s) * 1000.0)};
  const Clock::time_point stop = at(duration_ms);
  Clock::time_point next_sample = pass.window.begin;

  // Traced passes: window-edge histogram snapshots and Stats() samples,
  // taken whenever the client wakes; it wakes at least every kStatsPeriod.
  const auto housekeeping = [&](Clock::time_point now) {
    if (!traced) return;
    if (pass.marks < 2 &&
        now >= (pass.marks == 0 ? pass.window.begin : pass.window.end)) {
      pass.tick[pass.marks] = tick_hist->Snapshot();
      pass.decode[pass.marks] = decode_hist->Snapshot();
      (pass.marks == 0 ? pass.hist_window.begin : pass.hist_window.end) = now;
      ++pass.marks;
    }
    if (now < next_sample) return;
    if (pass.window.Contains(now)) {
      const serve::ServerStats stats = server->Stats();
      pass.queue_depth.push_back(static_cast<double>(stats.queue_depth));
      pass.active_slots.push_back(static_cast<double>(stats.active_slots));
    }
    while (next_sample <= now) next_sample += kStatsPeriod;
  };
  const auto wake_by = [&](Clock::time_point t) {
    return traced ? std::min(t, next_sample) : t;
  };

  const auto send = [&](serve::GenerateRequest request, Clock::time_point due) {
    const size_t index = pass.sent.size();
    Sent& s = pass.sent.emplace_back();
    s.request = request;
    s.expected_tokens = ExpectedTokens(request, cfg);
    s.measured = pass.window.Contains(due);
    s.times.due = due;
    request.on_token = [&s, index, closed_loop, &mu, &cv, &finished](
                           serve::RequestId, int64_t token) {
      s.times.tokens.push_back(Clock::now());
      s.streamed.push_back(token);
      if (closed_loop && s.streamed.size() == s.expected_tokens) {
        {
          std::lock_guard<std::mutex> lock(mu);
          finished.push_back(index);
        }
        cv.notify_one();
      }
    };
    s.times.submit_begin = Clock::now();
    util::StatusOr<serve::RequestId> id = server->Submit(std::move(request));
    s.times.submit_end = Clock::now();
    s.accepted = id.ok();
    if (s.accepted) {
      s.id = id.value();
    } else {
      s.collected = true;
      s.result.status = id.status();
    }
    return index;
  };
  const auto collect = [&](Sent* s) {
    if (s->collected) return;
    util::StatusOr<serve::RequestResult> result = server->Wait(s->id);
    s->collected = true;
    if (result.ok()) {
      s->result = std::move(result).value();
    } else {
      s->result.status = result.status();
    }
  };

  if (closed_loop) {
    // A finished request is replaced at once, and the replacement is due
    // when its predecessor's last token arrived.
    std::vector<size_t> inflight;
    for (int i = 0; i < kClosedLoopClients; ++i) {
      inflight.push_back(send(plan.source(), pass.start));
    }
    Clock::time_point next_poll = pass.start + kPollPeriod;
    while (!inflight.empty()) {
      std::vector<size_t> done;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait_until(lock, wake_by(next_poll),
                      [&] { return !finished.empty(); });
        done.swap(finished);
      }
      Clock::time_point now = Clock::now();
      housekeeping(now);
      if (now >= next_poll) {
        next_poll = now + kPollPeriod;
        for (size_t i : inflight) {
          Sent& s = pass.sent[i];
          if (!s.collected && server->Poll(s.id, &s.result) ==
                                  serve::InferenceServer::PollOutcome::kReady) {
            s.collected = true;
          }
          if (s.collected) done.push_back(i);  // rejected at Submit, or ended
        }
      }
      for (size_t i : done) {
        auto it = std::find(inflight.begin(), inflight.end(), i);
        if (it == inflight.end()) continue;  // already replaced
        inflight.erase(it);
        Sent& s = pass.sent[i];
        collect(&s);
        now = Clock::now();
        if (now < stop) {
          const Clock::time_point due =
              s.times.tokens.empty() ? now : s.times.tokens.back();
          inflight.push_back(send(plan.source(), due));
        }
      }
    }
  } else {
    for (const serve::Arrival& arrival : plan.arrivals) {
      const Clock::time_point due = at(arrival.at_ms);
      for (Clock::time_point now = Clock::now(); now < due;
           now = Clock::now()) {
        housekeeping(now);
        std::this_thread::sleep_until(wake_by(due));
      }
      housekeeping(Clock::now());
      send(arrival.request, due);
    }
    for (Clock::time_point now = Clock::now(); now < stop; now = Clock::now()) {
      housekeeping(now);
      std::this_thread::sleep_until(wake_by(stop));
    }
    housekeeping(Clock::now());
    for (Sent& s : pass.sent) collect(&s);
  }
  obs::EnableProfiling(false);
  return pass;
}

// ---------------------------------------------------------------------------
// Metrics.

struct Run {
  Metrics metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;

  void Percentile(const std::string& name, const std::vector<double>& samples,
                  double q) {
    if (samples.size() < kMinSamples) {
      errors.push_back(name + ": " + std::to_string(samples.size()) +
                       " samples in the window, need " +
                       std::to_string(kMinSamples));
    }
    metrics[name] = NearestRank(samples, q);
  }
};

bool FinishedOk(const Sent& s) { return s.collected && s.result.status.ok(); }

// Client-side samples of the requests due inside the window.
struct WindowSamples {
  int64_t sent = 0;
  int64_t completed = 0;
  std::vector<double> ttft, itl, gen_lag, submit_us, queue_ms, prefill_ms;
  int64_t prompt_tokens = 0;
  int64_t output_tokens = 0;
  std::vector<std::vector<int64_t>> prompts;
};

WindowSamples Collect(const Pass& pass) {
  WindowSamples w;
  for (const Sent& s : pass.sent) {
    if (!s.measured) continue;
    ++w.sent;
    w.gen_lag.push_back(GenLagMs(s.times));
    w.submit_us.push_back(
        MsBetween(s.times.submit_begin, s.times.submit_end) * 1000.0);
    w.prompts.push_back(s.request.prompt);
    if (!FinishedOk(s) || s.times.tokens.empty()) continue;
    ++w.completed;
    w.ttft.push_back(TtftMs(s.times));
    AppendInterTokenGapsMs(s.times, &w.itl);
    w.queue_ms.push_back(s.result.queue_ms);
    w.prefill_ms.push_back(s.result.first_token_ms - s.result.queue_ms);
    w.prompt_tokens += static_cast<int64_t>(s.request.prompt.size());
    w.output_tokens += static_cast<int64_t>(s.result.tokens.size());
  }
  return w;
}

// Counts the requests due in the window as attempted, and those that did
// not finish OK as failed.
void Account(const Pass& pass, Run* run) {
  for (const Sent& s : pass.sent) {
    if (!s.measured) continue;
    ++run->attempted;
    if (!FinishedOk(s)) ++run->failed;
  }
}

// A closed loop's capacity: the median over half-second pieces of the
// window of the requests finished OK per second, each request counted by
// the share of its time in the system inside the piece. The median passes
// over the pieces in which a CPU of a shared host stalled the server.
double CompletedPerSecond(const Pass& pass) {
  std::vector<RequestTimes> finished;
  for (const Sent& s : pass.sent) {
    if (FinishedOk(s)) finished.push_back(s.times);
  }
  return MedianCompletionRate(finished, pass.window, kCapacityPieceS);
}

void EndToEnd(const Pass& pass, Run* run) {
  const WindowSamples w = Collect(pass);
  int64_t window_tokens = 0;
  for (const Sent& s : pass.sent) {
    window_tokens += TokensInWindow(s.times, pass.window);
  }
  Account(pass, run);
  Metrics& m = run->metrics;
  m["output_tok_s"] =
      static_cast<double>(window_tokens) / pass.window.seconds();
  run->Percentile("ttft_p50_ms", w.ttft, 0.50);
  run->Percentile("ttft_p90_ms", w.ttft, 0.90);
  run->Percentile("itl_p50_ms", w.itl, 0.50);
  run->Percentile("itl_p90_ms", w.itl, 0.90);
  m["error_rate"] = w.sent > 0 ? static_cast<double>(w.sent - w.completed) /
                                     static_cast<double>(w.sent)
                               : 1.0;
}

void PerLayer(const Pass& pass, const nn::GPTModel& model, Run* run) {
  const WindowSamples w = Collect(pass);
  Metrics& m = run->metrics;
  m["client.sent"] = static_cast<double>(w.sent);
  m["client.completed"] = static_cast<double>(w.completed);
  m["client.failed"] = static_cast<double>(w.sent - w.completed);
  run->Percentile("client.gen_lag_p99_ms", w.gen_lag, 0.99);
  run->Percentile("client.submit_us_p50", w.submit_us, 0.50);
  run->Percentile("client.submit_us_p99", w.submit_us, 0.99);
  run->Percentile("client.ttft_p99_ms", w.ttft, 0.99);
  run->Percentile("client.itl_p99_ms", w.itl, 0.99);
  run->Percentile("serve.queue_wait_ms_p50", w.queue_ms, 0.50);
  run->Percentile("serve.queue_wait_ms_p90", w.queue_ms, 0.90);
  run->Percentile("serve.prefill_ms_p50", w.prefill_ms, 0.50);

  if (pass.marks < 2) {
    run->errors.push_back("traced pass missed a window edge");
    return;
  }
  // Histogram counts and sums are exact; only their percentiles snap to
  // buckets, so only means are taken from them.
  const double ticks =
      static_cast<double>(pass.tick[1].count - pass.tick[0].count);
  const double tick_ms = pass.tick[1].sum - pass.tick[0].sum;
  const double calls =
      static_cast<double>(pass.decode[1].count - pass.decode[0].count);
  const double decode_ms = pass.decode[1].sum - pass.decode[0].sum;
  // Lane-steps in the window: one per token streamed in it, plus the
  // prompt steps that sample nothing, counted where the first token lands.
  int64_t lane_steps = 0;
  for (const Sent& s : pass.sent) {
    lane_steps += TokensInWindow(s.times, pass.hist_window);
    if (!s.times.tokens.empty() &&
        pass.hist_window.Contains(s.times.tokens.front())) {
      lane_steps += static_cast<int64_t>(s.request.prompt.size()) - 1;
    }
  }
  m["serve.ticks"] = ticks;
  m["serve.tick_ms_mean"] = tick_ms / ticks;
  m["serve.lanes_per_tick"] = static_cast<double>(lane_steps) / ticks;
  m["nn.decode_step_ms_mean"] = decode_ms / calls;
  m["serve.tick_gap_ms_mean"] = tick_ms / ticks - decode_ms / calls;
  m["serve.active_slots_mean"] = Mean(pass.active_slots);
  m["serve.queue_depth_mean"] = Mean(pass.queue_depth);
  m["serve.queue_depth_max"] =
      pass.queue_depth.empty()
          ? NAN
          : *std::max_element(pass.queue_depth.begin(),
                              pass.queue_depth.end());
  m["serve.busy_share"] = tick_ms / (pass.hist_window.seconds() * 1000.0);
  m["nn.decode_us_per_lane"] =
      decode_ms * 1000.0 / static_cast<double>(lane_steps);
  // Computed, not measured: each call streams every weight once, except
  // the position table, of which it reads one row per lane.
  const nn::GPTConfig& cfg = model.config();
  const double weight_bytes =
      4.0 * static_cast<double>(model.NumParameters() -
                                cfg.max_seq_len * cfg.d_model);
  m["nn.weight_gb_s"] = weight_bytes * calls / (decode_ms / 1000.0) / 1e9;

  // A request feeds every prompt token and every sampled token but the last.
  const double completed = static_cast<double>(w.completed);
  const double prompt_tokens = static_cast<double>(w.prompt_tokens);
  m["workload.prefill_share"] =
      prompt_tokens /
      (prompt_tokens + static_cast<double>(w.output_tokens) - completed);
  m["workload.shared_prefix_share"] = SharedPrefixShare(w.prompts);
  m["workload.mean_prompt_tokens"] = prompt_tokens / completed;
  m["workload.mean_output_tokens"] =
      static_cast<double>(w.output_tokens) / completed;
  m["workload.offered_rps"] =
      static_cast<double>(w.sent) / pass.window.seconds();
}

// ---------------------------------------------------------------------------
// Direct layer timings on the benchmark's model (--trace only).

int64_t LayerToken(int64_t lane, int64_t pos, int64_t vocab) {
  return (1 + 7919 * (lane * 64 + pos)) % vocab;
}

template <typename Fn>
double MedianPassMs(Fn pass) {
  pass();  // buffers reach their high-water size untimed
  std::vector<double> ms;
  for (int i = 0; i < kLayerPasses; ++i) {
    const Clock::time_point start = Clock::now();
    pass();
    ms.push_back(MsBetween(start, Clock::now()));
  }
  return NearestRank(ms, 0.5);
}

// Mean time per BatchedDecodeStep call over one 48-position pass of
// `lanes` sequences.
double BatchedMsPerCall(const nn::GPTModel& model, serve::KvCachePool* pool,
                        int64_t lanes) {
  const nn::GPTConfig& cfg = model.config();
  std::vector<int64_t> slots;
  for (int64_t b = 0; b < lanes; ++b) slots.push_back(pool->Acquire());
  std::vector<float> logits(static_cast<size_t>(lanes * cfg.vocab_size));
  std::vector<nn::SeqStepInput> inputs(static_cast<size_t>(lanes));
  nn::BatchedScratch scratch;
  const double pass_ms = MedianPassMs([&] {
    for (int64_t pos = 0; pos < cfg.max_seq_len; ++pos) {
      for (int64_t b = 0; b < lanes; ++b) {
        inputs[static_cast<size_t>(b)] = {
            LayerToken(b, pos, cfg.vocab_size), pos,
            pool->slot_views(slots[static_cast<size_t>(b)]),
            logits.data() + b * cfg.vocab_size};
      }
      nn::BatchedDecodeStep(model, inputs.data(), lanes, &scratch);
    }
  });
  for (int64_t slot : slots) pool->Release(slot);
  return pass_ms / static_cast<double>(cfg.max_seq_len);
}

double SampleUs(const std::vector<float>& logits, float temperature,
                float top_p, int calls) {
  sample::SamplerOptions options;
  options.temperature = temperature;
  options.top_p = top_p;
  util::Rng rng(7);
  const double pass_ms = MedianPassMs([&] {
    for (int i = 0; i < calls; ++i) {
      const int64_t token = sample::SampleFromLogits(
          logits.data(), static_cast<int64_t>(logits.size()), options, &rng);
      LLM_CHECK_GE(token, 0);
    }
  });
  return pass_ms * 1000.0 / calls;
}

void LayerTimings(const nn::GPTModel& model, Metrics* m) {
  const nn::GPTConfig& cfg = model.config();
  serve::KvCachePool pool(cfg, ServerConfig().max_batch_size);
  (*m)["kv.reserved_mb"] = static_cast<double>(pool.bytes()) / (1 << 20);
  (*m)["nn.batched_b1_ms"] = BatchedMsPerCall(model, &pool, 1);
  (*m)["nn.batched_b8_ms"] = BatchedMsPerCall(model, &pool, 8);
  nn::GptInferenceSession session(&model);
  (*m)["nn.session_append_ms"] =
      MedianPassMs([&] {
        session.Reset();
        for (int64_t pos = 0; pos < cfg.max_seq_len; ++pos) {
          session.Append(LayerToken(0, pos, cfg.vocab_size));
        }
      }) /
      static_cast<double>(cfg.max_seq_len);
  // A real logits row: the last one of the session's pass.
  const std::vector<float> logits = session.logits();
  (*m)["sample.greedy_us"] = SampleUs(logits, 0.0f, 0.0f, 200);
  (*m)["sample.temp_us"] = SampleUs(logits, 0.8f, 0.0f, 200);
  (*m)["sample.top_p_us"] = SampleUs(logits, 0.8f, 0.9f, 20);
}

// ---------------------------------------------------------------------------
// Correctness.

// Every request's streamed tokens must equal its result, and every
// kCheckEvery-th request sent must match a dedicated single-stream run.
void CheckOutputs(const nn::GPTModel& model, const std::vector<Pass>& passes,
                  std::vector<std::string>* errors) {
  std::vector<const Sent*> to_check;
  for (const Pass& pass : passes) {
    for (size_t i = 0; i < pass.sent.size(); ++i) {
      const Sent& s = pass.sent[i];
      if (!FinishedOk(s)) continue;
      if (s.streamed != s.result.tokens) {
        errors->push_back("request " + std::to_string(s.id) +
                          ": streamed tokens differ from its result");
      }
      if (i % kCheckEvery == 0) to_check.push_back(&s);
    }
  }
  // The server is shut down by now, so the check may use every core.
  const size_t n_threads = std::min<size_t>(
      std::max(1u, std::thread::hardware_concurrency()), 4);
  std::vector<char> mismatch(to_check.size(), 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < n_threads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < to_check.size(); i += n_threads) {
        const serve::GenerateRequest& request = to_check[i]->request;
        sample::GenerateOptions options;
        options.max_new_tokens = request.max_new_tokens;
        options.sampler = request.sampler;
        options.stop_token = request.stop_token;
        util::Rng rng(request.seed);
        mismatch[i] = sample::GenerateCached(model, request.prompt, options,
                                             &rng) != to_check[i]->result.tokens;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t i = 0; i < to_check.size(); ++i) {
    if (mismatch[i]) {
      errors->push_back("request " + std::to_string(to_check[i]->id) +
                        ": output differs from sample::GenerateCached");
    }
  }
  if (to_check.empty()) errors->push_back("no request was checked");
}

void CheckConservation(const serve::ServerStats& stats,
                       std::vector<std::string>* errors) {
  const uint64_t terminal = stats.completed + stats.cancelled +
                            stats.expired + stats.failed + stats.preempted;
  if (stats.submitted != terminal) {
    errors->push_back("conservation: submitted " +
                      std::to_string(stats.submitted) + " != terminal " +
                      std::to_string(terminal));
  }
}

// ---------------------------------------------------------------------------
// Output.

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

// One JSON line per request of `pass`: spans request (due to last token)
// with children submit, queue (Submit returned to admission), prefill
// (admission to first token) and decode (first to last token). Times are ms
// from the pass's start; self_ms is the span minus its children.
void WriteSpans(const Pass& pass, const std::string& path,
                std::vector<std::string>* errors) {
  std::ofstream out(path);
  if (!out) {
    errors->push_back("cannot write " + path);
    return;
  }
  const auto at = [&](Clock::time_point t) { return MsBetween(pass.start, t); };
  for (size_t i = 0; i < pass.sent.size(); ++i) {
    const Sent& s = pass.sent[i];
    const RequestTimes& t = s.times;
    const double end =
        t.tokens.empty() ? at(t.submit_end) : at(t.tokens.back());
    std::vector<Span> spans = {{"request", -1, at(t.due), end},
                               {"submit", 0, at(t.submit_begin),
                                at(t.submit_end)}};
    if (FinishedOk(s) && !t.tokens.empty()) {
      // The server stamps queue_ms from inside Submit; submit_begin is the
      // closest client-side clock reading.
      const double admit =
          std::max(at(t.submit_begin) + s.result.queue_ms, at(t.submit_end));
      const double first = at(t.tokens.front());
      spans.push_back({"queue", 0, at(t.submit_end), admit});
      spans.push_back({"prefill", 0, admit, first});
      spans.push_back({"decode", 0, first, end});
    }
    out << "{\"request\":" << i << ",\"measured\":"
        << (s.measured ? "true" : "false") << ",\"ok\":"
        << (FinishedOk(s) ? "true" : "false") << ",\"spans\":[";
    for (size_t k = 0; k < spans.size(); ++k) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"parent\":%d,\"start_ms\":%.4f,"
                    "\"end_ms\":%.4f,\"self_ms\":%.4f}",
                    k == 0 ? "" : ",", spans[k].name.c_str(), spans[k].parent,
                    spans[k].start_ms, spans[k].end_ms,
                    SelfTimeMs(spans, k));
      out << buf;
    }
    out << "]}\n";
  }
}

void PrintResult(const Options& opt, const Run& run) {
  std::string line = "BENCH_E2E {\"workload\":" + JsonString(opt.workload) +
                     ",\"seed\":" + std::to_string(opt.seed) +
                     ",\"seconds\":" + std::to_string(opt.seconds) +
                     ",\"trace\":" + (opt.trace ? "true" : "false") +
                     ",\"correct\":" + (run.errors.empty() ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(run.attempted) +
                     ",\"failed\":" + std::to_string(run.failed) +
                     ",\"errors\":[";
  for (size_t i = 0; i < run.errors.size(); ++i) {
    if (i > 0) line += ',';
    line += JsonString(run.errors[i]);
  }
  line += "],\"metrics\":{";
  bool first = true;
  for (const MetricDef& def : kMetrics) {
    auto it = run.metrics.find(def.name);
    if (it == run.metrics.end()) continue;
    char value[64];
    if (std::isfinite(it->second)) {
      std::snprintf(value, sizeof(value), "%.17g", it->second);
    } else {
      std::snprintf(value, sizeof(value), "null");
    }
    line += std::string(first ? "" : ",") + "\"" + def.name +
            "\":{\"value\":" + value + ",\"unit\":\"" + def.unit +
            "\",\"better\":\"" + def.better + "\"}";
    first = false;
  }
  std::printf("%s}}\n", line.c_str());
}

void PrintList() {
  for (const char* workload : kWorkloads) std::printf("workload %s\n", workload);
  for (const MetricDef& def : kMetrics) {
    std::printf("%s %s %s %s\n", def.end_to_end ? "end_to_end" : "per_layer",
                def.name, def.unit, def.better);
  }
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* flag, std::string* out) {
      const std::string prefix = std::string(flag) + "=";
      if (arg.rfind(prefix, 0) != 0) return false;
      *out = arg.substr(prefix.size());
      return true;
    };
    std::string v;
    if (arg == "--list") {
      opt->list = true;
    } else if (arg == "--setup-only") {
      opt->setup_only = true;
    } else if (arg == "--trace") {
      opt->trace = true;
    } else if (value("--workload", &opt->workload) ||
               value("--trace-out", &opt->trace_out)) {
    } else if (value("--seed", &v)) {
      char* end = nullptr;
      opt->seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') return false;
    } else if (value("--seconds", &v)) {
      char* end = nullptr;
      const long seconds = std::strtol(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0' || seconds < 1 || seconds > 600) {
        return false;
      }
      opt->seconds = static_cast<int>(seconds);
    } else {
      return false;
    }
  }
  if (opt->list || opt->setup_only) return true;
  return std::find(std::begin(kWorkloads), std::end(kWorkloads),
                   opt->workload) != std::end(kWorkloads);
}

// One cold set-up: a fresh copy of this program, run with --setup-only,
// builds the model, starts the server and writes one byte to its stdout.
// It is timed from the spawn to that byte, so process start, loading and
// first-touch page faults count. NaN if the child failed.
double ColdSetupS() {
  int fds[2];
  if (pipe(fds) != 0) return NAN;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  char exe[] = "/proc/self/exe";
  char flag[] = "--setup-only";
  char* child_argv[] = {exe, flag, nullptr};
  const Clock::time_point start = Clock::now();
  pid_t pid = 0;
  const bool spawned =
      posix_spawn(&pid, exe, &actions, nullptr, child_argv, environ) == 0;
  close(fds[1]);
  char byte = 0;
  const bool ready = spawned && read(fds[0], &byte, 1) == 1;
  const Clock::time_point end = Clock::now();
  close(fds[0]);
  posix_spawn_file_actions_destroy(&actions);
  int status = 0;
  const bool exited_ok = spawned && waitpid(pid, &status, 0) == pid &&
                         WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return ready && exited_ok ? MsBetween(start, end) / 1000.0 : NAN;
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload=<decode_steady|prefill_long|"
                 "prefix_shared|chat_mix> --seed=<n> [--seconds=<n>] "
                 "[--trace] [--trace-out=PATH]\n"
                 "       bench_e2e --list\n");
    return 2;
  }
  if (opt.list) {
    PrintList();
    return 0;
  }
  const nn::GPTConfig cfg = ServingConfig();
  if (opt.setup_only) {
    util::Rng rng(kWeightSeed);
    nn::GPTModel model(cfg, &rng);
    serve::InferenceServer server(&model, ServerConfig());
    server.Start();
    return write(STDOUT_FILENO, "1", 1) == 1 ? 0 : 1;
  }
  Run run;
  Metrics& m = run.metrics;

  // Cold set-ups, each right after a reading of the reference.
  std::vector<double> setup_raw;
  std::vector<double> references;
  for (int i = 0; i < kSetups; ++i) {
    references.push_back(HostReferenceMs());
    const double seconds = ColdSetupS();
    if (std::isnan(seconds)) {
      run.errors.push_back("a --setup-only child failed");
    } else {
      setup_raw.push_back(seconds);
    }
  }
  m["setup_raw_s"] = NearestRank(setup_raw, 0.5);
  m["host.reference_ms"] = NearestRank(references, 0.5);
  m["setup_s"] =
      ScaleTime(m["setup_raw_s"], m["host.reference_ms"], kReferenceMs);

  util::Rng rng(kWeightSeed);
  const nn::GPTModel model(cfg, &rng);
  auto server = std::make_unique<serve::InferenceServer>(&model,
                                                         ServerConfig());
  server->Start();

  std::vector<Pass> passes;
  passes.push_back(RunPass(server.get(), cfg, MainPlan(opt, cfg, false)));
  EndToEnd(passes.front(), &run);
  if (opt.trace) {
    passes.push_back(RunPass(server.get(), cfg, MainPlan(opt, cfg, true)));
    Run traced;
    EndToEnd(passes.back(), &traced);
    PerLayer(passes.back(), model, &run);
    run.attempted += traced.attempted;
    run.failed += traced.failed;
    run.errors.insert(run.errors.end(), traced.errors.begin(),
                      traced.errors.end());
    m["obs.trace_overhead_pct"] =
        (traced.metrics["itl_p50_ms"] / m["itl_p50_ms"] - 1.0) * 100.0;
  }
  // The last pass measured with the workload's own traffic.
  const size_t spans_pass = passes.size() - 1;
  // decode_steady's measured pass is itself the closed loop whose capacity
  // counts; the open-loop workloads run one after their measured passes.
  if (opt.workload == "decode_steady") {
    m["capacity_rps"] = CompletedPerSecond(passes.front());
  } else {
    passes.push_back(RunPass(server.get(), cfg, CapacityPlan(opt, cfg)));
    Account(passes.back(), &run);
    m["capacity_rps"] = CompletedPerSecond(passes.back());
  }

  CheckConservation(server->Stats(), &run.errors);
  server.reset();
  CheckOutputs(model, passes, &run.errors);
  if (opt.trace) LayerTimings(model, &m);
  if (!opt.trace_out.empty()) {
    WriteSpans(passes[spans_pass], opt.trace_out, &run.errors);
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  run.metrics["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
  for (const auto& [name, value] : run.metrics) {
    if (!std::isfinite(value)) run.errors.push_back(name + " is not finite");
  }
  PrintResult(opt, run);
  return run.errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace llm::bench_e2e

int main(int argc, char** argv) { return llm::bench_e2e::Main(argc, argv); }
