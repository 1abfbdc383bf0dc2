// ReplicaRouter: one serving front door over N independent InferenceServer
// replicas (each with its own model copy, KV pool, and scheduler thread).
//
// The router owns everything that makes a fleet more than N servers:
//
//   Routing      Submit picks the least-loaded replica among those that
//                are alive, in rotation (not mid-reload), and not
//                draining, preferring kHealthy over kDegraded.
//   Breakers     A per-replica circuit breaker (fleet/circuit_breaker.h)
//                absorbs the outcome of every dispatched attempt; a
//                replica that keeps faulting stops receiving traffic
//                until a cooldown probe succeeds.
//   Failover     An attempt that dies with the replica (kFault, or
//                cancelled by a replica shutdown the client didn't ask
//                for) is re-dispatched to a sibling with the request's
//                remaining deadline, up to 3 times.
//   Hedging      When a request's only attempt has been running longer
//                than hedge_delay, a second attempt with the SAME seed
//                is dispatched to a different replica.
//                First completion wins; the loser is cancelled and its
//                partial output is asserted bit-identical to the winner's
//                prefix — the serving runtime's determinism contract
//                (request output is a pure function of the request) made
//                checkable in production. Mismatches are counted, never
//                silently dropped.
//   Reload       ReloadModel(path) rolls new weights across the fleet one
//                replica at a time with zero downtime: each replica is
//                taken out of rotation, drained, validated, swapped,
//                canaried, and re-admitted (breaker reset) before the
//                next begins — see fleet/replica.h for the rollback
//                protocol. Live traffic rides the remaining replicas.
//
// A dedicated pump thread polls all outstanding attempts every
// millisecond and owns hedging, failover, and finalization; client
// threads only Submit, Wait, and Cancel. Fleet-level conservation mirrors
// the single-server invariant: every accepted request reaches exactly one
// terminal state, so at quiescence
//   submitted == completed + cancelled + expired + failed + preempted.
//
// Multi-tenancy: the request's TenantClass rides inside GenerateRequest,
// so every failover and hedge re-dispatch carries the original priority,
// quota class, and fair-share weight to the next replica. An attempt a
// replica preempted (kPreempted — displaced by a higher-priority tenant,
// not a fault) is re-dispatched like a lost attempt but WITHOUT a breaker
// penalty; if the failover budget runs out the request finalizes as
// kPreempted with the partial tokens of its furthest attempt, never as a
// fault.
#ifndef TFMR_SERVE_FLEET_REPLICA_ROUTER_H_
#define TFMR_SERVE_FLEET_REPLICA_ROUTER_H_

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

#include "nn/transformer.h"
#include "serve/fleet/circuit_breaker.h"
#include "serve/fleet/replica.h"
#include "serve/inference_server.h"
#include "util/status.h"

namespace llm::serve {

struct FleetOptions {
  int num_replicas = 2;
  /// Per-replica server configuration (batch size, workers, queue, ...).
  ServerOptions server;
  CircuitBreakerOptions breaker;
  /// Hedge a request once its only attempt has run this long; zero
  /// disables hedging entirely.
  std::chrono::milliseconds hedge_delay{0};
  /// Test mode: let the hedge loser run to completion and assert FULL
  /// bit-equality with the winner (default cancels the loser and checks
  /// its partial output as a prefix).
  bool hedge_verify_full = false;
  /// Per-replica drain budget during a rolling reload.
  std::chrono::milliseconds reload_drain_timeout{2000};
};

/// A replica's standing in the rotation, for operators and tests.
enum class ReplicaPhase {
  kActive = 0,  // eligible for traffic (breaker permitting)
  kReloading,   // mid weight-swap; out of rotation
  kDead,        // killed; never returns
};

const char* ReplicaPhaseName(ReplicaPhase phase);

/// Fleet-wide counters. Conservation at quiescence:
/// submitted == completed + cancelled + expired + failed + preempted.
/// `rejected` counts requests no replica would take at Submit;
/// `preempted` those finalized kPreempted after the failover budget ran
/// out (partial tokens preserved).
struct FleetStats : RequestCounts {
  uint64_t failovers = 0;         // attempts re-dispatched after loss
  uint64_t hedges_launched = 0;
  uint64_t hedges_won = 0;        // requests whose hedge beat the primary
  uint64_t hedge_mismatches = 0;  // determinism violations (must stay 0)
  uint64_t reloads = 0;           // successful per-replica reloads
  uint64_t reload_failures = 0;   // rejected/rolled-back reloads
  double p99_latency_ms = 0.0;    // fleet-observed completion latency
};

class ReplicaRouter {
 public:
  /// Builds num_replicas replicas, each with a private copy of
  /// `prototype`'s weights. `prototype` may be freed after construction.
  ReplicaRouter(const nn::GPTModel& prototype, const FleetOptions& options);
  ~ReplicaRouter();  // implies Shutdown()

  ReplicaRouter(const ReplicaRouter&) = delete;
  ReplicaRouter& operator=(const ReplicaRouter&) = delete;

  void Start();

  /// Routes to the best eligible replica. Errors: InvalidArgument (bad
  /// request), FailedPrecondition (fleet draining / shut down),
  /// ResourceExhausted (every eligible replica refused), Internal (no
  /// eligible replica at all).
  util::StatusOr<RequestId> Submit(GenerateRequest request);

  /// Blocks until the request reaches its fleet-terminal state. The id is
  /// fleet-scoped (returned by Submit); NotFound for unknown/collected.
  util::StatusOr<RequestResult> Wait(RequestId id);

  /// Requests cancellation; the pump propagates it to live attempts.
  bool Cancel(RequestId id);

  /// Submit + Wait; admission failures come back in RequestResult::status.
  RequestResult GenerateBlocking(GenerateRequest request);

  /// Graceful: closes fleet admission, lets outstanding requests finish
  /// (failover still active), then shuts down. DeadlineExceeded if the
  /// timeout lapsed first.
  util::Status Drain(std::chrono::milliseconds timeout);

  /// Hard stop: outstanding requests finalize (mostly kCancelled) and
  /// every Wait returns. Idempotent.
  void Shutdown();

  /// Zero-downtime rolling reload: for each live replica in turn — out of
  /// rotation, drain, validate checkpoint (CRC + architecture), swap,
  /// canary, re-admit with a reset breaker. Stops at the first failing
  /// replica (that replica is already rolled back and re-admitted on its
  /// old weights) and returns the error. Serialized: concurrent calls are
  /// rejected with FailedPrecondition.
  util::Status ReloadModel(const std::string& checkpoint_path);

  FleetStats Stats() const;

  int num_replicas() const { return static_cast<int>(replicas_.size()); }
  ReplicaPhase replica_phase(int i) const;
  BreakerState breaker_state(int i) const;
  uint64_t replica_weights_version(int i) const;
  /// The replica's CURRENT server's stats (post-reload servers start
  /// fresh). Feeds the per-replica KV-slot conservation assertions.
  ServerStats replica_stats(int i) const;

  /// Chaos hooks. Kill is permanent (hard shutdown + out of rotation);
  /// Poison makes every decode on the replica fault until its server is
  /// rebuilt by a reload.
  void KillReplica(int i);
  void PoisonReplica(int i, bool on);

 private:
  struct Attempt {
    int replica = -1;
    /// The exact server generation the attempt was submitted to; kept
    /// alive here so Poll stays valid across replica server swaps.
    std::shared_ptr<InferenceServer> server;
    RequestId inner_id = 0;
    uint64_t weights_version = 0;
    std::chrono::steady_clock::time_point dispatched_at;
    bool is_hedge = false;
    /// This attempt's span in the request's trace (-1 untraced). The inner
    /// server parents its queue/decode spans under it.
    int32_t span = -1;
  };

  struct FleetRequest {
    RequestId id = 0;
    GenerateRequest request;  // user's original (incl. their on_token)
    std::chrono::steady_clock::time_point submit_time;
    std::chrono::steady_clock::time_point deadline;  // max() = none
    std::atomic<bool> cancel_requested{false};

    /// Request-wide trace (null unless the client asked for one). The
    /// router owns the root span; every attempt's server-side spans hang
    /// under that attempt's span.
    std::shared_ptr<obs::Trace> trace;

    // Routing state: guarded by the router's mu_.
    std::vector<Attempt> attempts;
    int failovers = 0;
    bool hedged = false;
    /// A replica preempted an attempt of this request (policy, not a
    /// fault). `preempt_result` keeps the furthest preempted attempt's
    /// partial output so failover exhaustion can finalize as kPreempted
    /// (resumable at the client) instead of a fault. Guarded by mu_.
    bool was_preempted = false;
    RequestResult preempt_result;

    // Streamed-prefix dedup across attempts: guarded by stream_mu (taken
    // on replica scheduler threads, so kept separate from mu_).
    std::mutex stream_mu;
    size_t streamed = 0;

    // Terminal state: guarded by mu.
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    RequestResult result;
    uint64_t result_version = 0;  // weights_version the winner ran on
  };

  /// A cancelled-or-abandoned attempt whose retirement we still collect
  /// (hedge losers awaiting bit-exactness verification).
  struct Zombie {
    std::shared_ptr<FleetRequest> freq;
    Attempt attempt;
  };

  void PumpMain();
  void PumpRequestLocked(const std::shared_ptr<FleetRequest>& freq,
                         std::chrono::steady_clock::time_point now);
  void PumpZombiesLocked();
  /// Dispatches one attempt. On success appends to freq->attempts.
  util::Status DispatchLocked(const std::shared_ptr<FleetRequest>& freq,
                              bool is_hedge,
                              std::chrono::steady_clock::time_point now);
  void FinalizeLocked(const std::shared_ptr<FleetRequest>& freq,
                      RequestResult result, const Attempt* winner);
  void VerifyLoserLocked(const std::shared_ptr<FleetRequest>& freq,
                         const Attempt& attempt, const RequestResult& loser);
  bool ReplicaEligibleLocked(int i) const;

  const FleetOptions options_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<std::unique_ptr<CircuitBreaker>> breakers_;
  std::vector<std::atomic<int>> phase_;  // ReplicaPhase as int

  std::thread pump_thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> admission_closed_{false};
  std::atomic<bool> shutting_down_{false};
  bool started_ = false;  // guarded by mu_

  std::atomic<uint64_t> next_id_{1};

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;  // notified when active_ empties
  std::unordered_map<RequestId, std::shared_ptr<FleetRequest>> active_;
  std::unordered_map<RequestId, std::shared_ptr<FleetRequest>> done_;
  std::vector<Zombie> zombies_;
  bool reload_in_progress_ = false;  // guarded by mu_

  // Counters: guarded by mu_.
  RequestCounts counts_;
  uint64_t failovers_ = 0;
  uint64_t hedges_launched_ = 0;
  uint64_t hedges_won_ = 0;
  uint64_t hedge_mismatches_ = 0;
  uint64_t reloads_ = 0;
  uint64_t reload_failures_ = 0;
  /// Fleet completion latencies (submit -> final completion across all
  /// attempts), behind FleetStats::p99_latency_ms.
  obs::Histogram latency_hist_;
};

/// FleetStats counterpart of ExportServerStats: every field becomes the
/// gauge `<prefix>.<field>` in `registry`.
void ExportFleetStats(const FleetStats& stats, const std::string& prefix,
                      obs::MetricsRegistry* registry);

}  // namespace llm::serve

#endif  // TFMR_SERVE_FLEET_REPLICA_ROUTER_H_
