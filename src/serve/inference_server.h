// InferenceServer: the user-facing facade of the serving runtime.
//
//   InferenceServer server(&model, options);
//   server.Start();
//   auto id = server.Submit({.prompt = {...}, .seed = 7});
//   ...
//   auto result = server.Wait(*id);
//
// Wiring: Submit (any thread) validates and pushes into the bounded
// RequestQueue; one scheduler thread admits requests into free
// KvCachePool slots and drives BatchScheduler::Tick in a loop, fanning
// the fused forward pass across the WorkerPool; completions are published
// through per-request condition variables and streamed tokens through the
// request's on_token callback (invoked on the scheduler thread).
//
// Overloaded? Submit returns ResourceExhausted immediately — callers
// shed or retry (SubmitWithRetry wraps the standard capped-backoff retry
// loop); queued work never grows unboundedly stale. Admission is also
// deadline-aware: a queued request whose deadline has passed — or cannot
// be met at the current measured decode rate — is rejected at admission
// instead of wasting a KV slot.
//
// Failure model (DESIGN.md §10): one misbehaving request must never take
// down the batch. Poisoned lanes (NaN/Inf logits), throwing on_token
// callbacks, and watchdog-detected stalls all retire only the affected
// request with FinishReason::kFault / an Internal status (counted in
// ServerStats::failed); leaked KV slots are swept back into the pool.
// Health() reports the aggregate state; Drain() is the graceful way out.
#ifndef TFMR_SERVE_INFERENCE_SERVER_H_
#define TFMR_SERVE_INFERENCE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "nn/batched_decode.h"
#include "nn/transformer.h"
#include "obs/metrics.h"
#include "serve/batch_scheduler.h"
#include "serve/kv_cache_pool.h"
#include "serve/request.h"
#include "serve/request_queue.h"
#include "serve/tenant.h"
#include "serve/worker_pool.h"
#include "util/status.h"

namespace llm::serve {

struct ServerOptions {
  /// Maximum in-flight sequences == KV cache slots reserved; faulted in on
  /// first use.
  int64_t max_batch_size = 8;
  /// Worker threads for the batched forward pass. 0 runs the forward
  /// inline on the scheduler thread — the right choice on a single-core
  /// host, where batching (not fan-out) provides the speedup. Use roughly
  /// one worker per physical core otherwise.
  int num_workers = 0;
  /// Bounded admission: Submit beyond this many queued requests returns
  /// ResourceExhausted.
  size_t queue_capacity = 64;
  /// Scheduler watchdog: a tick still running after this long is declared
  /// stalled — in-flight requests fail fast with Internal (instead of
  /// leaving every Wait() hung behind a wedged worker) and Health()
  /// reports kDegraded. Zero disables the watchdog. Budget generously:
  /// a false positive fails healthy requests.
  std::chrono::milliseconds tick_budget{0};
  /// Per-tenant-class quotas, fair-share weights, and shed/preempt
  /// eligibility (tenant.h). The default marks batch/background sheddable
  /// and preemptible with unlimited quotas, so a server whose clients
  /// never tag requests (everything kChat) behaves exactly as before.
  TenantPolicy tenants = TenantPolicy::Default();
  /// Optional decode-rate hint (ms per sequence-step), e.g. the previous
  /// server's measured estimate carried across a replica reload. While the
  /// EMA is still warming up, deadline-feasibility admission uses the
  /// smaller of this hint and the fastest observed tick, so a freshly
  /// reloaded server sheds infeasible deadlines from its very first
  /// request instead of admitting doomed work for 8 ticks. Zero = no hint.
  double est_ms_per_step_seed = 0.0;
};

/// Aggregate server condition, for load balancers and operators.
enum class ServerHealth {
  kHealthy = 0,   // serving normally
  kDegraded,      // serving, but at least one fault was isolated
                  // (poisoned lane, stalled tick, leaked slot, throwing
                  // callback) — sticky until shutdown
  kDraining,      // Drain()/Shutdown() begun: no new admissions
};

const char* ServerHealthName(ServerHealth health);

/// Client-side retry policy for SubmitWithRetry: capped exponential
/// backoff with deterministic jitter, retrying only ResourceExhausted
/// (overload) rejections.
struct RetryOptions {
  int max_attempts = 5;
  std::chrono::milliseconds initial_backoff{2};
  std::chrono::milliseconds max_backoff{50};
  /// Seed of the jitter stream: retries are reproducible, and distinct
  /// seeds decorrelate clients so backed-off retries don't re-collide.
  uint64_t jitter_seed = 0;
};

/// Point-in-time server statistics. Latency percentiles are estimated
/// from an obs::Histogram over every completed request since Start —
/// exact to within one bucket width (~19% relative), no sample retention.
///
/// Conservation invariant (asserted by the chaos harness): every accepted
/// request reaches exactly one terminal state, so at quiescence
/// `submitted == completed + cancelled + expired + failed + preempted`,
/// and `free_slots == total_slots`. The same identity holds per class.
///
/// Per-tenant-class slice of the counters, plus the latency percentiles
/// interactive SLOs are written against: TTFT (submit -> first token) and
/// TPOT (mean inter-token gap after the first). A class's `rejected`
/// counts its queue-full Submit rejections (no victim to shed); its
/// `preempted` counts shed requests plus mid-decode lane preemptions
/// (lane share = preempted - shed).
struct TenantClassStats : RequestCounts {
  uint64_t quota_rejected = 0;  // token-bucket rejections at Submit
  uint64_t shed = 0;            // evicted from the queue by a higher class
  uint64_t tokens = 0;          // streamed tokens delivered
  double p50_ttft_ms = 0.0;
  double p99_ttft_ms = 0.0;
  double p50_tpot_ms = 0.0;
  double p99_tpot_ms = 0.0;
};

/// The request counters and `total_tokens` are sums over `classes`;
/// `rejected` sums both kinds of Submit rejection (queue-full and quota).
struct ServerStats : RequestCounts {
  size_t queue_depth = 0;
  int64_t active_slots = 0;
  int64_t total_slots = 0;
  int64_t free_slots = 0;
  uint64_t stalled_ticks = 0;    // watchdog detections
  uint64_t leaks_repaired = 0;   // KV slots swept back into the pool
  uint64_t total_tokens = 0;  // generated tokens since Start
  double tokens_per_sec = 0.0;  // total_tokens over wall time since Start
  /// EMA of per-sequence decode-step cost; feeds deadline-aware admission.
  /// Zero until enough ticks have been observed.
  double est_ms_per_step = 0.0;
  double p50_latency_ms = 0.0;  // submit -> completion, finished requests
  double p95_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  ServerHealth health = ServerHealth::kHealthy;
  /// Per-tenant-class breakdown of the counters above.
  TenantClassStats classes[kNumTenantClasses];
};

class InferenceServer {
 public:
  /// `model` must outlive the server.
  InferenceServer(const nn::GPTModel* model, const ServerOptions& options);
  ~InferenceServer();  // implies Shutdown()

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Spawns the scheduler (and worker/watchdog) threads. Requests
  /// submitted before Start sit in the queue — useful for deterministic
  /// tests.
  void Start();

  /// Stops the scheduler: queued requests fail with Cancelled, in-flight
  /// sequences retire with partial output, threads are joined. Idempotent,
  /// and safe against concurrent Submit: every accepted request still
  /// reaches a terminal state, so Wait() after Shutdown always returns.
  void Shutdown();

  /// Graceful shutdown: stops admission immediately (Submit returns
  /// FailedPrecondition), lets queued and in-flight requests finish, then
  /// shuts down. Returns OK if everything finished within `timeout`,
  /// DeadlineExceeded if the timeout lapsed first (the remainder is
  /// cancelled by the Shutdown that follows either way).
  util::Status Drain(std::chrono::milliseconds timeout);

  /// Aggregate condition: kDraining once Drain/Shutdown has begun,
  /// kDegraded after any isolated fault, kHealthy otherwise.
  ServerHealth Health() const;

  /// Validates and enqueues. Errors: InvalidArgument (empty prompt,
  /// oversized prompt, bad token ids), ResourceExhausted (queue full),
  /// FailedPrecondition (after Drain/Shutdown).
  util::StatusOr<RequestId> Submit(GenerateRequest request);

  /// Submit with a capped-exponential-backoff retry loop around
  /// ResourceExhausted rejections (deterministic jitter from
  /// `retry.jitter_seed`). Any other error — and overload persisting past
  /// the final attempt — is returned as-is. Blocks between attempts; call
  /// from client threads, never from an on_token callback.
  util::StatusOr<RequestId> SubmitWithRetry(const GenerateRequest& request,
                                            const RetryOptions& retry);

  /// Requests cancellation; the scheduler retires the sequence at the next
  /// tick (or at admission if still queued). False if the id is unknown or
  /// already finished. True means the cancel was requested, not that the
  /// request will necessarily finish as kCancelled — it may complete
  /// normally in the same tick the cancel raced.
  bool Cancel(RequestId id);

  /// Blocks until the request finishes and returns its result, forgetting
  /// the id. NotFound for unknown (or already-collected) ids. Must not be
  /// called from an on_token callback. Guaranteed to return (never hang)
  /// regardless of concurrent Cancel/Drain/Shutdown.
  util::StatusOr<RequestResult> Wait(RequestId id);

  /// Non-blocking Wait: kReady fills `*out` and forgets the id (exactly
  /// like a returned Wait), kPending leaves the id live for later polls,
  /// kUnknown means the id was never accepted or was already collected.
  /// The poll primitive replica routers drive hedging and failover from.
  enum class PollOutcome { kReady, kPending, kUnknown };
  PollOutcome Poll(RequestId id, RequestResult* out);

  /// Cheap load signal for routers: queued plus in-flight requests. A
  /// couple of relaxed reads — safe from any thread, no locks taken.
  int64_t ApproxLoad() const;

  /// Chaos hook: while on, every decode lane's logits are poisoned to NaN
  /// before the numeric-health check, so each in-flight request retires
  /// with kFault — a whole-replica "model gone bad", as opposed to the
  /// single-lane kDecodeNaN injection site. Synchronized (atomic flag read
  /// by worker lanes), so chaos schedules stay TSan-clean.
  void DebugPoisonDecode(bool on);

  /// Submit + Wait convenience; admission failures come back in
  /// RequestResult::status.
  RequestResult GenerateBlocking(GenerateRequest request);

  ServerStats Stats() const;

  const ServerOptions& options() const { return options_; }

 private:
  void SchedulerMain();
  void WatchdogMain();
  /// Pops as many queued requests into free slots as possible; returns the
  /// number admitted. Queued requests that are already cancelled, past
  /// deadline, or whose deadline is infeasible at the measured decode rate
  /// complete immediately without occupying a slot.
  int64_t AdmitFromQueue();
  /// Admission gate for one popped request: true to admit, false if it was
  /// completed in place (cancelled / expired / infeasible deadline).
  bool PrepareAdmission(const std::shared_ptr<RequestState>& state);
  void Publish(const TickOutput& out);
  /// Sweeps slots leaked by a retirement (the kSlotLeak fault) back into
  /// the pool, counting each repair and marking the server degraded. Runs
  /// after each tick's and each preemption's Publish, so a leak is gone
  /// before the next admission.
  void RepairLeakedSlots();
  /// The one terminal path: counts the outcome, then marks the request
  /// done and wakes its waiters. A no-op on a request already done.
  void CompleteNow(const std::shared_ptr<RequestState>& state,
                   FinishReason reason, util::Status status);
  void RecordFinish(const RequestState& state, FinishReason reason,
                    double total_ms);
  /// The registered request with this id, or null if unknown/collected.
  std::shared_ptr<RequestState> Lookup(RequestId id) const;
  /// Copies a done request's result into `*out` and forgets its id,
  /// blocking until it is done if `block`; false if it is still running.
  bool Collect(RequestState& state, bool block, RequestResult* out);

  const nn::GPTModel* model_;
  const ServerOptions options_;
  RequestQueue queue_;
  KvCachePool pool_;
  BatchScheduler scheduler_;
  WorkerPool workers_;
  std::vector<nn::BatchedScratch> scratch_;  // one per worker lane
  TickOutput tick_out_;

  std::thread scheduler_thread_;
  std::thread watchdog_thread_;
  std::atomic<bool> stop_{false};
  bool started_ = false;   // guarded by lifecycle_mu_
  bool finished_ = false;  // guarded by lifecycle_mu_
  std::mutex lifecycle_mu_;
  /// Set by Drain/Shutdown before the queue closes; Submit's fast reject.
  std::atomic<bool> admission_closed_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> degraded_{false};

  // Watchdog heartbeat: tick_seq_ is odd while a tick is executing (the
  // scheduler bumps it entering and leaving Tick), tick_start_ns_ is the
  // running tick's start on the steady clock.
  std::atomic<uint64_t> tick_seq_{0};
  std::atomic<int64_t> tick_start_ns_{0};
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;

  // Decode-rate estimate, scheduler thread only; mirrored into an atomic
  // for Stats(). `est_floor_ms_` is the optimistic floor (the fastest
  // observed tick, seeded from options.est_ms_per_step_seed) used for
  // feasibility shedding while the EMA warms up.
  double est_ms_per_step_ = 0.0;
  double est_floor_ms_ = 0.0;
  int64_t ticks_observed_ = 0;
  std::atomic<double> est_ms_per_step_pub_{0.0};

  /// Per-class admission quota buckets (tenant.h); indexed by TenantClass.
  /// TokenBucket is not thread-safe and Submit runs on any thread, hence
  /// the mutex.
  std::mutex quota_mu_;
  std::vector<TokenBucket> quota_;

  std::atomic<uint64_t> next_id_{1};
  /// Every accepted request from Submit until its result is collected:
  /// what Wait, Poll and Cancel look up, and where the watchdog finds the
  /// admitted requests a stalled tick holds.
  mutable std::mutex registry_mu_;
  std::unordered_map<RequestId, std::shared_ptr<RequestState>> registry_;

  mutable std::mutex stats_mu_;
  std::condition_variable drain_cv_;  // with stats_mu_: terminal-count waits
  /// The server's only request counters, one ledger per class; Stats()
  /// and Drain() sum them (percentile fields unused here; Stats() fills
  /// them from the histograms below).
  TenantClassStats class_counts_[kNumTenantClasses];
  std::atomic<uint64_t> stalled_ticks_{0};
  std::atomic<uint64_t> leaks_repaired_{0};
  std::chrono::steady_clock::time_point started_at_;
  /// Completion latencies of finished-OK requests; Stats() reads its
  /// percentiles. Atomic buckets — recorded outside any lock.
  obs::Histogram latency_hist_;
  /// Per-tenant-class TTFT (submit -> first token) and TPOT (mean
  /// inter-token gap) distributions, the quantities per-class SLOs pin.
  obs::Histogram ttft_hist_[kNumTenantClasses];
  obs::Histogram tpot_hist_[kNumTenantClasses];
  /// Scheduler-tick profiling sink ("serve.tick_ms" in the global
  /// registry); only written while obs::EnableProfiling(true).
  obs::Histogram* tick_hist_;
};

/// Writes the seven RequestCounts fields into `registry` as gauges named
/// `<prefix>.<field>`: the one exporter of the ledger for the server
/// totals, each tenant class and the fleet.
void ExportRequestCounts(const RequestCounts& counts,
                         const std::string& prefix,
                         obs::MetricsRegistry* registry);

/// Writes every ServerStats field into `registry` as a gauge named
/// `<prefix>.<field>` (e.g. "serve.completed", "serve.p99_latency_ms").
/// Benches call this right before MetricsRegistry::JsonSnapshot so the
/// METRICS line carries the serving counters alongside everything else.
void ExportServerStats(const ServerStats& stats, const std::string& prefix,
                       obs::MetricsRegistry* registry);

}  // namespace llm::serve

#endif  // TFMR_SERVE_INFERENCE_SERVER_H_
