#include "serve/fleet/replica_router.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/flight_recorder.h"
#include "util/check.h"
#include "util/fault.h"

namespace llm::serve {

namespace {

// Attempts lost to the fleet are re-dispatched at most this many times
// before the request finalizes as failed (or preempted).
constexpr int kMaxFailovers = 3;

// Pump thread sweep cadence.
constexpr std::chrono::milliseconds kPumpInterval{1};

bool FinishedOk(const RequestResult& result) {
  return result.status.ok() &&
         (result.reason == FinishReason::kStop ||
          result.reason == FinishReason::kLength ||
          result.reason == FinishReason::kWindow);
}

}  // namespace

const char* ReplicaPhaseName(ReplicaPhase phase) {
  switch (phase) {
    case ReplicaPhase::kActive: return "active";
    case ReplicaPhase::kReloading: return "reloading";
    case ReplicaPhase::kDead: return "dead";
  }
  return "unknown";
}

ReplicaRouter::ReplicaRouter(const nn::GPTModel& prototype,
                             const FleetOptions& options)
    : options_(options),
      phase_(static_cast<size_t>(std::max(options.num_replicas, 1))) {
  LLM_CHECK_GT(options.num_replicas, 0);
  for (int i = 0; i < options.num_replicas; ++i) {
    replicas_.push_back(
        std::make_unique<Replica>(i, prototype, options.server));
    breakers_.push_back(std::make_unique<CircuitBreaker>(options.breaker, i));
    phase_[static_cast<size_t>(i)].store(
        static_cast<int>(ReplicaPhase::kActive), std::memory_order_relaxed);
  }
}

ReplicaRouter::~ReplicaRouter() { Shutdown(); }

void ReplicaRouter::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  started_ = true;
  for (auto& replica : replicas_) replica->Start();
  pump_thread_ = std::thread(&ReplicaRouter::PumpMain, this);
}

bool ReplicaRouter::ReplicaEligibleLocked(int i) const {
  const auto& replica = replicas_[static_cast<size_t>(i)];
  if (replica->dead()) return false;
  if (phase_[static_cast<size_t>(i)].load(std::memory_order_acquire) !=
      static_cast<int>(ReplicaPhase::kActive)) {
    return false;
  }
  return replica->server()->Health() != ServerHealth::kDraining;
}

util::Status ReplicaRouter::DispatchLocked(
    const std::shared_ptr<FleetRequest>& freq, bool is_hedge,
    std::chrono::steady_clock::time_point now) {
  GenerateRequest inner = freq->request;
  if (freq->deadline != std::chrono::steady_clock::time_point::max()) {
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(freq->deadline -
                                                              now);
    if (remaining.count() <= 0) {
      return util::Status::DeadlineExceeded(
          "deadline expired before dispatch");
    }
    // Failover/hedge attempts get the request's REMAINING budget, not a
    // fresh one — the client's deadline is absolute.
    inner.timeout = remaining;
  }

  // Candidates: in rotation and not already hosting an attempt of this
  // request (a hedge on the same replica would prove nothing).
  struct Candidate {
    int index;
    int health_rank;  // 0 = healthy, 1 = degraded
    int64_t load;
  };
  std::vector<Candidate> candidates;
  for (int i = 0; i < num_replicas(); ++i) {
    if (!ReplicaEligibleLocked(i)) continue;
    bool taken = false;
    for (const Attempt& a : freq->attempts) taken |= (a.replica == i);
    if (taken) continue;
    auto server = replicas_[static_cast<size_t>(i)]->server();
    candidates.push_back(
        {i, server->Health() == ServerHealth::kHealthy ? 0 : 1,
         server->ApproxLoad()});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.health_rank != b.health_rank)
                return a.health_rank < b.health_rank;
              if (a.load != b.load) return a.load < b.load;
              return a.index < b.index;
            });

  util::Status last = util::Status::Internal("no eligible replica");
  for (const Candidate& c : candidates) {
    CircuitBreaker* breaker = breakers_[static_cast<size_t>(c.index)].get();
    if (!breaker->Allow(now)) {
      if (freq->trace) {
        freq->trace->Event("breaker_open", obs::Trace::kRootSpan, c.index);
      }
      last = util::Status::ResourceExhausted(
          "circuit breaker open on replica " + std::to_string(c.index));
      continue;
    }
    if (util::MaybeInjectFault(util::FaultSite::kReplicaDispatch)) {
      breaker->RecordFailure(now);
      if (freq->trace) {
        freq->trace->Event("dispatch_fault", obs::Trace::kRootSpan, c.index,
                           "injected dispatch failure");
      }
      last = util::Status::Internal("injected dispatch failure (replica " +
                                    std::to_string(c.index) + ")");
      continue;
    }
    auto server = replicas_[static_cast<size_t>(c.index)]->server();

    // Streamed-prefix dedup: each attempt counts its own emissions; a
    // token is forwarded to the user's callback only when it EXTENDS the
    // globally streamed prefix. Determinism (same seed => same tokens)
    // makes duplicate positions interchangeable, so across hedges and
    // failovers the client observes each position exactly once, in order.
    GenerateRequest attempt_req = inner;
    auto position = std::make_shared<size_t>(0);
    auto user_cb = freq->request.on_token;
    const RequestId fleet_id = freq->id;
    auto freq_keepalive = freq;
    attempt_req.on_token = [freq_keepalive, position, user_cb, fleet_id](
                               RequestId, int64_t token) {
      const size_t pos = (*position)++;
      std::lock_guard<std::mutex> lock(freq_keepalive->stream_mu);
      if (pos == freq_keepalive->streamed) {
        ++freq_keepalive->streamed;
        if (user_cb) user_cb(fleet_id, token);
      }
    };

    // Traced requests get an "attempt" span per dispatch; the replica's
    // server parents its queue/decode spans under it via trace_sink.
    int32_t attempt_span = -1;
    if (freq->trace) {
      attempt_span =
          freq->trace->BeginSpan("attempt", obs::Trace::kRootSpan, c.index);
      attempt_req.trace_sink = freq->trace;
      attempt_req.trace_parent = attempt_span;
    }

    auto id_or = server->Submit(std::move(attempt_req));
    if (!id_or.ok()) {
      breaker->AbortProbe();  // the granted probe was never dispatched
      if (freq->trace) freq->trace->EndSpan(attempt_span, "submit rejected");
      if (id_or.status().code() == util::StatusCode::kInvalidArgument) {
        return id_or.status();  // the request itself is bad; don't shop it
      }
      last = id_or.status();
      continue;
    }
    obs::FlightRecorder::Global().Record(
        obs::FlightEventType::kDispatch, c.index,
        static_cast<int64_t>(freq->id), is_hedge ? 1 : 0);
    if (is_hedge) {
      obs::FlightRecorder::Global().Record(obs::FlightEventType::kHedgeLaunch,
                                           c.index,
                                           static_cast<int64_t>(freq->id));
      if (freq->trace) {
        freq->trace->Event("hedge_launch", attempt_span, c.index);
      }
    }
    Attempt attempt;
    attempt.replica = c.index;
    attempt.server = std::move(server);
    attempt.inner_id = id_or.value();
    attempt.weights_version =
        replicas_[static_cast<size_t>(c.index)]->weights_version();
    attempt.dispatched_at = now;
    attempt.is_hedge = is_hedge;
    attempt.span = attempt_span;
    freq->attempts.push_back(std::move(attempt));
    return util::Status::OK();
  }
  return last;
}

util::StatusOr<RequestId> ReplicaRouter::Submit(GenerateRequest request) {
  if (admission_closed_.load(std::memory_order_acquire)) {
    return util::Status::FailedPrecondition("fleet is draining or shut down");
  }
  const auto now = std::chrono::steady_clock::now();
  auto freq = std::make_shared<FleetRequest>();
  freq->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  freq->request = std::move(request);
  freq->submit_time = now;
  freq->deadline = freq->request.timeout.count() > 0
                       ? now + freq->request.timeout
                       : std::chrono::steady_clock::time_point::max();
  if (freq->request.trace) {
    // The fleet owns the root span; attempts hang under it and the winner
    // closes it at finalization.
    freq->trace = std::make_shared<obs::Trace>(freq->id);
  }

  std::lock_guard<std::mutex> lock(mu_);
  util::Status dispatched = DispatchLocked(freq, /*is_hedge=*/false, now);
  if (!dispatched.ok()) {
    ++counts_.rejected;
    return dispatched;
  }
  ++counts_.submitted;
  active_[freq->id] = freq;
  return freq->id;
}

util::StatusOr<RequestResult> ReplicaRouter::Wait(RequestId id) {
  std::shared_ptr<FleetRequest> freq;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = active_.find(id);
    if (it != active_.end()) {
      freq = it->second;
    } else {
      auto jt = done_.find(id);
      if (jt == done_.end()) {
        return util::Status::NotFound("unknown or already-collected id " +
                                      std::to_string(id));
      }
      freq = jt->second;
    }
  }
  {
    std::unique_lock<std::mutex> lk(freq->mu);
    freq->cv.wait(lk, [&] { return freq->done; });
  }
  std::lock_guard<std::mutex> lock(mu_);
  done_.erase(id);
  return freq->result;
}

bool ReplicaRouter::Cancel(RequestId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(id);
  if (it == active_.end()) return false;
  it->second->cancel_requested.store(true, std::memory_order_release);
  return true;
}

RequestResult ReplicaRouter::GenerateBlocking(GenerateRequest request) {
  auto id_or = Submit(std::move(request));
  if (!id_or.ok()) {
    RequestResult result;
    result.status = id_or.status();
    return result;
  }
  auto result_or = Wait(id_or.value());
  if (!result_or.ok()) {
    RequestResult result;
    result.status = result_or.status();
    return result;
  }
  return result_or.value();
}

void ReplicaRouter::FinalizeLocked(const std::shared_ptr<FleetRequest>& freq,
                                   RequestResult result,
                                   const Attempt* winner) {
  // Surviving non-winner attempts become zombies: cancelled (default) or
  // left to finish (hedge_verify_full), then collected and — for hedge
  // losers — verified bit-identical against the winner.
  const bool keep_running = options_.hedge_verify_full && winner != nullptr &&
                            FinishedOk(result);
  for (Attempt& attempt : freq->attempts) {
    if (winner != nullptr && attempt.inner_id == winner->inner_id &&
        attempt.replica == winner->replica) {
      continue;
    }
    if (!keep_running) attempt.server->Cancel(attempt.inner_id);
    if (freq->trace) {
      freq->trace->EndSpan(attempt.span,
                           keep_running ? "lost: verifying" : "lost: cancelled");
    }
    zombies_.push_back({freq, std::move(attempt)});
  }
  freq->attempts.clear();

  // Fleet-level latency: the client's submit -> final completion, across
  // however many attempts it took.
  result.total_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - freq->submit_time)
                        .count();

  if (counts_.Finish(result.reason)) {
    if (winner != nullptr && winner->is_hedge) ++hedges_won_;
    latency_hist_.Record(result.total_ms);
  }

  if (freq->trace) {
    if (winner != nullptr) freq->trace->EndSpan(winner->span, "won");
    freq->trace->EndSpan(obs::Trace::kRootSpan,
                         FinishReasonName(result.reason));
    result.trace = freq->trace;
  }
  {
    std::lock_guard<std::mutex> lk(freq->mu);
    freq->result = std::move(result);
    freq->result_version = winner != nullptr ? winner->weights_version : 0;
    freq->done = true;
  }
  freq->cv.notify_all();
  done_[freq->id] = freq;
  active_.erase(freq->id);
  if (active_.empty()) idle_cv_.notify_all();
}

void ReplicaRouter::VerifyLoserLocked(
    const std::shared_ptr<FleetRequest>& freq, const Attempt& attempt,
    const RequestResult& loser) {
  // Only comparable when the winner finished OK and both attempts ran on
  // the same weights version (a reload between them changes the function).
  if (!FinishedOk(freq->result)) return;
  if (attempt.weights_version != freq->result_version) return;
  const std::vector<int64_t>& winner_tokens = freq->result.tokens;
  const std::vector<int64_t>& loser_tokens = loser.tokens;
  if (FinishedOk(loser)) {
    // Both ran to completion: full bit-equality.
    if (loser_tokens != winner_tokens) ++hedge_mismatches_;
    return;
  }
  if (loser.reason == FinishReason::kCancelled) {
    // Cancelled mid-flight: its partial output must be a prefix of the
    // winner's (determinism contract), and never longer than a completed
    // winner's full output.
    if (loser_tokens.size() > winner_tokens.size()) {
      ++hedge_mismatches_;
      return;
    }
    if (!std::equal(loser_tokens.begin(), loser_tokens.end(),
                    winner_tokens.begin())) {
      ++hedge_mismatches_;
    }
  }
  // Faulted / expired losers carry no determinism claim; skip.
}

void ReplicaRouter::PumpRequestLocked(
    const std::shared_ptr<FleetRequest>& freq,
    std::chrono::steady_clock::time_point now) {
  const bool cancel_wanted =
      freq->cancel_requested.load(std::memory_order_acquire);
  if (cancel_wanted) {
    for (const Attempt& attempt : freq->attempts) {
      attempt.server->Cancel(attempt.inner_id);
    }
  }

  for (size_t i = 0; i < freq->attempts.size();) {
    Attempt& attempt = freq->attempts[i];
    RequestResult result;
    const auto outcome = attempt.server->Poll(attempt.inner_id, &result);
    if (outcome == InferenceServer::PollOutcome::kPending) {
      ++i;
      continue;
    }
    if (outcome == InferenceServer::PollOutcome::kReady) {
      if (FinishedOk(result)) {
        breakers_[static_cast<size_t>(attempt.replica)]->RecordSuccess();
        const Attempt winner = std::move(attempt);
        freq->attempts.erase(freq->attempts.begin() +
                             static_cast<ptrdiff_t>(i));
        FinalizeLocked(freq, std::move(result), &winner);
        return;
      }
      if (result.reason == FinishReason::kDeadline) {
        // The client's deadline expired: terminal wherever it happened.
        FinalizeLocked(freq, std::move(result), nullptr);
        return;
      }
      if (result.reason == FinishReason::kCancelled &&
          (cancel_wanted || shutting_down_.load(std::memory_order_acquire))) {
        FinalizeLocked(freq, std::move(result), nullptr);
        return;
      }
      // Everything else is an attempt lost to the fleet, not the client:
      // kFault (poisoned/stalled replica), a cancellation the client never
      // asked for (replica killed or drained under the request), or a
      // preemption (displaced by a higher-priority tenant). Faults feed
      // the breaker; infrastructure cancellations and preemptions don't —
      // a preempting replica is healthy, it just chose a more important
      // request. The re-dispatch below carries the original TenantClass,
      // so a preempted-then-retried request keeps its priority.
      if (result.reason == FinishReason::kFault) {
        breakers_[static_cast<size_t>(attempt.replica)]->RecordFailure(now);
      } else if (result.reason == FinishReason::kPreempted) {
        // Keep the furthest partial output so failover exhaustion can
        // finalize as resumable kPreempted rather than a fault.
        if (!freq->was_preempted ||
            result.tokens.size() >= freq->preempt_result.tokens.size()) {
          freq->preempt_result = result;
        }
        freq->was_preempted = true;
      }
      if (freq->trace) {
        freq->trace->EndSpan(
            attempt.span,
            std::string("lost: ") + FinishReasonName(result.reason));
      }
      freq->attempts.erase(freq->attempts.begin() + static_cast<ptrdiff_t>(i));
      continue;
    }
    // kUnknown: defensive — treat as a lost attempt.
    freq->attempts.erase(freq->attempts.begin() + static_cast<ptrdiff_t>(i));
  }

  if (freq->attempts.empty()) {
    // No live attempt left. Fail over with the remaining deadline, unless
    // the fleet is going down, the client cancelled, or the budget is out.
    if (shutting_down_.load(std::memory_order_acquire) || cancel_wanted) {
      RequestResult result;
      result.reason = FinishReason::kCancelled;
      result.status = util::Status::Cancelled(
          cancel_wanted ? "cancelled by client" : "fleet shut down");
      FinalizeLocked(freq, std::move(result), nullptr);
      return;
    }
    if (freq->failovers >= kMaxFailovers) {
      if (freq->was_preempted) {
        // Every attempt ended in a policy preemption, not a fault: hand
        // back the furthest partial output as kPreempted so the client
        // can resubmit (resume) rather than treating the fleet as broken.
        FinalizeLocked(freq, std::move(freq->preempt_result), nullptr);
        return;
      }
      RequestResult result;
      result.reason = FinishReason::kFault;
      result.status = util::Status::Internal(
          "request failed after " + std::to_string(freq->failovers) +
          " failovers");
      FinalizeLocked(freq, std::move(result), nullptr);
      return;
    }
    util::Status redispatched = DispatchLocked(freq, /*is_hedge=*/false, now);
    if (redispatched.ok()) {
      ++freq->failovers;  // counts successful re-dispatches, not sweeps
      ++failovers_;
      obs::FlightRecorder::Global().Record(
          obs::FlightEventType::kFailover, freq->attempts.back().replica,
          static_cast<int64_t>(freq->id), freq->failovers);
      if (freq->trace) {
        freq->trace->Event("failover", freq->attempts.back().span,
                           freq->failovers);
      }
      return;
    }
    if (redispatched.code() == util::StatusCode::kDeadlineExceeded) {
      RequestResult result;
      result.reason = FinishReason::kDeadline;
      result.status = std::move(redispatched);
      FinalizeLocked(freq, std::move(result), nullptr);
      return;
    }
    // Nobody would take it right now (breakers cooling, queues full, the
    // only sibling mid-reload). That's transient at 1ms sweep granularity
    // — keep the request parked and retry next sweep; deadlines and
    // kMaxFailovers bound the wait. Only a fleet with no living replica
    // at all makes the request hopeless.
    bool any_alive = false;
    for (const auto& replica : replicas_) any_alive |= !replica->dead();
    if (!any_alive) {
      RequestResult result;
      result.reason = FinishReason::kFault;
      result.status = util::Status::Internal("every replica is dead");
      FinalizeLocked(freq, std::move(result), nullptr);
    }
    return;
  }

  // Hedging: one extra attempt per request, once the only attempt has
  // outlived the threshold.
  if (options_.hedge_delay.count() > 0 && !freq->hedged &&
      freq->attempts.size() == 1 && !cancel_wanted &&
      now - freq->attempts[0].dispatched_at >= options_.hedge_delay) {
    freq->hedged = true;  // one hedge chance, dispatched or not
    if (DispatchLocked(freq, /*is_hedge=*/true, now).ok()) {
      ++hedges_launched_;
    }
  }
}

void ReplicaRouter::PumpZombiesLocked() {
  for (size_t i = 0; i < zombies_.size();) {
    Zombie& zombie = zombies_[i];
    RequestResult result;
    const auto outcome =
        zombie.attempt.server->Poll(zombie.attempt.inner_id, &result);
    if (outcome == InferenceServer::PollOutcome::kPending) {
      ++i;
      continue;
    }
    if (outcome == InferenceServer::PollOutcome::kReady) {
      VerifyLoserLocked(zombie.freq, zombie.attempt, result);
    }
    zombies_.erase(zombies_.begin() + static_cast<ptrdiff_t>(i));
  }
}

void ReplicaRouter::PumpMain() {
  std::vector<std::shared_ptr<FleetRequest>> sweep;
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto now = std::chrono::steady_clock::now();
      sweep.clear();
      sweep.reserve(active_.size());
      for (const auto& [id, freq] : active_) sweep.push_back(freq);
      for (const auto& freq : sweep) {
        if (active_.count(freq->id) == 0) continue;  // finalized this sweep
        PumpRequestLocked(freq, now);
      }
      PumpZombiesLocked();
      if (active_.empty() && zombies_.empty()) {
        idle_cv_.notify_all();
        if (stop_.load(std::memory_order_acquire)) break;
      }
    }
    std::this_thread::sleep_for(kPumpInterval);
  }
}

util::Status ReplicaRouter::Drain(std::chrono::milliseconds timeout) {
  obs::FlightRecorder::Global().Record(obs::FlightEventType::kDrainBegin);
  admission_closed_.store(true, std::memory_order_release);
  bool drained = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    drained = idle_cv_.wait_for(lock, timeout, [&] {
      return active_.empty() && zombies_.empty();
    });
  }
  Shutdown();
  return drained ? util::Status::OK()
                 : util::Status::DeadlineExceeded(
                       "fleet drain timed out with requests outstanding");
}

void ReplicaRouter::Shutdown() {
  admission_closed_.store(true, std::memory_order_release);
  shutting_down_.store(true, std::memory_order_release);
  for (auto& replica : replicas_) replica->server()->Shutdown();
  stop_.store(true, std::memory_order_release);
  bool join = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    join = started_ && pump_thread_.joinable();
  }
  if (join) {
    pump_thread_.join();
  } else {
    // Start() was never called: run the pump inline until every accepted
    // request reaches its terminal state (all servers are down, so each
    // attempt polls ready immediately).
    PumpMain();
  }
}

util::Status ReplicaRouter::ReloadModel(const std::string& checkpoint_path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (reload_in_progress_) {
      return util::Status::FailedPrecondition(
          "a rolling reload is already in progress");
    }
    reload_in_progress_ = true;
  }
  util::Status result = util::Status::OK();
  for (int i = 0; i < num_replicas(); ++i) {
    Replica* replica = replicas_[static_cast<size_t>(i)].get();
    if (replica->dead()) continue;
    // Out of rotation first: no new dispatches land on the replica while
    // it drains and swaps. In-flight attempts that outlive the drain are
    // cancelled and failed over by the pump.
    phase_[static_cast<size_t>(i)].store(
        static_cast<int>(ReplicaPhase::kReloading), std::memory_order_release);
    util::Status swapped =
        replica->Reload(checkpoint_path, options_.reload_drain_timeout);
    phase_[static_cast<size_t>(i)].store(
        static_cast<int>(ReplicaPhase::kActive), std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (swapped.ok()) {
        ++reloads_;
      } else {
        ++reload_failures_;
      }
    }
    if (!swapped.ok()) {
      // The replica rolled itself back and is serving its old weights;
      // stop the roll here rather than half-upgrading the fleet.
      result = swapped;
      break;
    }
    // New weights, new history: the breaker's memory of the old server
    // no longer applies.
    breakers_[static_cast<size_t>(i)]->Reset();
  }
  std::lock_guard<std::mutex> lock(mu_);
  reload_in_progress_ = false;
  return result;
}

FleetStats ReplicaRouter::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  FleetStats stats;
  static_cast<RequestCounts&>(stats) = counts_;
  stats.failovers = failovers_;
  stats.hedges_launched = hedges_launched_;
  stats.hedges_won = hedges_won_;
  stats.hedge_mismatches = hedge_mismatches_;
  stats.reloads = reloads_;
  stats.reload_failures = reload_failures_;
  stats.p99_latency_ms = latency_hist_.Percentile(0.99);
  return stats;
}

void ExportFleetStats(const FleetStats& stats, const std::string& prefix,
                      obs::MetricsRegistry* registry) {
  const auto set = [&](const char* name, double value) {
    registry->GetGauge(prefix + "." + name)->Set(value);
  };
  ExportRequestCounts(stats, prefix, registry);
  set("failovers", static_cast<double>(stats.failovers));
  set("hedges_launched", static_cast<double>(stats.hedges_launched));
  set("hedges_won", static_cast<double>(stats.hedges_won));
  set("hedge_mismatches", static_cast<double>(stats.hedge_mismatches));
  set("reloads", static_cast<double>(stats.reloads));
  set("reload_failures", static_cast<double>(stats.reload_failures));
  set("p99_latency_ms", stats.p99_latency_ms);
}

ReplicaPhase ReplicaRouter::replica_phase(int i) const {
  if (replicas_[static_cast<size_t>(i)]->dead()) return ReplicaPhase::kDead;
  return static_cast<ReplicaPhase>(
      phase_[static_cast<size_t>(i)].load(std::memory_order_acquire));
}

BreakerState ReplicaRouter::breaker_state(int i) const {
  return breakers_[static_cast<size_t>(i)]->state();
}

uint64_t ReplicaRouter::replica_weights_version(int i) const {
  return replicas_[static_cast<size_t>(i)]->weights_version();
}

ServerStats ReplicaRouter::replica_stats(int i) const {
  return replicas_[static_cast<size_t>(i)]->server()->Stats();
}

void ReplicaRouter::KillReplica(int i) {
  replicas_[static_cast<size_t>(i)]->Kill();
}

void ReplicaRouter::PoisonReplica(int i, bool on) {
  replicas_[static_cast<size_t>(i)]->server()->DebugPoisonDecode(on);
}

}  // namespace llm::serve
