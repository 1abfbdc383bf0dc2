// Request/response types for the batched inference serving runtime.
//
// A GenerateRequest is the serving-side mirror of sample::GenerateOptions
// plus the prompt and a per-request RNG seed. Seeding the sampler per
// request (rather than sharing one stream across the batch) is what makes
// a request's output independent of batch composition: together with the
// decode step, whose logits do not depend on the batch width
// (nn/batched_decode.h), a request returns exactly what a dedicated
// GptInferenceSession — the same step with one lane — would have produced.
#ifndef TFMR_SERVE_REQUEST_H_
#define TFMR_SERVE_REQUEST_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "sample/sampler.h"
#include "util/status.h"

namespace llm::serve {

using RequestId = uint64_t;

/// Tenant (traffic) class of a request. The class index doubles as its
/// priority: lower index = more important. Under overload the server sheds
/// and preempts strictly from the high-index end (background before batch,
/// batch before chat), so interactive traffic keeps its SLO while bulk
/// work degrades by policy — see tenant.h for the per-class knobs.
enum class TenantClass : int32_t {
  kChat = 0,        // interactive chat: latency-sensitive, never shed
  kBatch = 1,       // batch summarization: throughput work, sheddable
  kBackground = 2,  // background eval: lowest priority, quota-limited
};

inline constexpr int kNumTenantClasses = 3;

const char* TenantClassName(TenantClass tenant);

/// One generation request. Copyable; the server takes it by value.
struct GenerateRequest {
  /// Prompt tokens; must be non-empty and fit the model window.
  std::vector<int64_t> prompt;
  /// Per-request decoding strategy (temperature / top-k / top-p).
  sample::SamplerOptions sampler;
  int64_t max_new_tokens = 32;
  /// Stop early when this token is produced; -1 disables.
  int64_t stop_token = -1;
  /// Seed of the request's private sampling RNG. Two submissions with the
  /// same prompt/options/seed return identical tokens, whatever else is in
  /// flight.
  uint64_t seed = 0;
  /// Traffic class: admission priority, quota bucket, fair-share weight,
  /// and shed/preempt eligibility all key off this (tenant.h). The default
  /// kChat is the never-shed class, so untagged requests behave exactly as
  /// they did before multi-tenancy existed.
  TenantClass tenant = TenantClass::kChat;
  /// Relative deadline measured from Submit; zero means none. An expired
  /// request finishes with DeadlineExceeded (partial tokens preserved).
  std::chrono::milliseconds timeout{0};
  /// Streaming callback, invoked once per generated token from the
  /// scheduler thread. Must not block or re-enter the server.
  std::function<void(RequestId, int64_t)> on_token;
  /// When true, Submit mints an obs::Trace and every hop the request takes
  /// (queue wait, admission, decode, stream, retirement) records a span;
  /// the finished tree comes back in RequestResult::trace. Untraced
  /// requests skip all span bookkeeping.
  bool trace = false;
  /// Record spans into this existing trace instead of minting one, under
  /// the span id `trace_parent`. The fleet router uses this to stitch each
  /// replica attempt's server-side spans into one request-wide tree.
  /// Implies `trace` when set.
  std::shared_ptr<obs::Trace> trace_sink;
  int32_t trace_parent = obs::Trace::kRootSpan;
};

/// Why a request left the active set.
enum class FinishReason {
  kNone = 0,    // still queued or in flight
  kStop,        // produced the stop token
  kLength,      // produced max_new_tokens
  kWindow,      // hit the model's max_seq_len
  kCancelled,   // Cancel() or server shutdown
  kDeadline,    // timeout expired
  kFault,       // isolated server-side failure (status is Internal)
  kPreempted,   // shed from the queue or preempted mid-decode to make room
                // for a higher-priority tenant; partial tokens preserved,
                // resumable at the client (status is ResourceExhausted)
};

const char* FinishReasonName(FinishReason reason);

/// The outcome ledger of a set of requests: how many were accepted or
/// refused at Submit, and how many of the accepted reached each terminal
/// state. Conservation: at quiescence `submitted == terminal()`.
/// ServerStats, TenantClassStats and FleetStats all derive from it.
struct RequestCounts {
  uint64_t submitted = 0;
  uint64_t rejected = 0;   // refused at Submit, never accepted
  uint64_t completed = 0;  // finished OK (stop/length/window)
  uint64_t cancelled = 0;
  uint64_t expired = 0;    // deadline exceeded (in queue, in flight, or
                           // infeasible at admission)
  uint64_t failed = 0;     // isolated faults (kFault / Internal)
  uint64_t preempted = 0;  // kPreempted: shed from the queue or displaced
                           // mid-decode for a higher-priority tenant

  /// Counts one terminal state: the only place a finish reason maps to an
  /// outcome. Returns true for a completion, the outcome latency
  /// percentiles are measured over.
  bool Finish(FinishReason reason) {
    switch (reason) {
      case FinishReason::kStop:
      case FinishReason::kLength:
      case FinishReason::kWindow: ++completed; return true;
      case FinishReason::kCancelled: ++cancelled; return false;
      case FinishReason::kDeadline: ++expired; return false;
      case FinishReason::kPreempted: ++preempted; return false;
      case FinishReason::kFault:
      case FinishReason::kNone: break;  // no reason given: a fault too
    }
    ++failed;
    return false;
  }

  uint64_t terminal() const {
    return completed + cancelled + expired + failed + preempted;
  }

  RequestCounts& operator+=(const RequestCounts& other) {
    submitted += other.submitted;
    rejected += other.rejected;
    completed += other.completed;
    cancelled += other.cancelled;
    expired += other.expired;
    failed += other.failed;
    preempted += other.preempted;
    return *this;
  }
};

/// Final outcome of a request, returned by InferenceServer::Wait.
struct RequestResult {
  util::Status status;          // OK for kStop/kLength/kWindow
  FinishReason reason = FinishReason::kNone;  // kFault => status is Internal
  std::vector<int64_t> tokens;  // generated tokens (partial on error)
  double queue_ms = 0.0;        // submit -> admission
  double total_ms = 0.0;        // submit -> completion
  double first_token_ms = 0.0;  // submit -> first token (TTFT); 0 if none
  /// Span tree for traced requests (null otherwise). Shared const view:
  /// the trace is complete by the time Wait returns it.
  std::shared_ptr<const obs::Trace> trace;
};

/// Shared per-request state: written by the scheduler thread, observed by
/// whichever thread calls Wait. Guarded by `mu` except the cancel flag.
struct RequestState {
  RequestId id = 0;
  GenerateRequest request;
  std::chrono::steady_clock::time_point submit_time;
  std::chrono::steady_clock::time_point deadline;  // time_point::max() = none
  std::atomic<bool> cancel_requested{false};

  /// Tracing (null for untraced requests). `owns_trace` is true when this
  /// server minted the trace (and so ends the root span at retirement);
  /// false when a fleet router owns the root. Span ids are atomics because
  /// the submitting thread opens the queue span while the scheduler thread
  /// later closes it and opens the decode span.
  std::shared_ptr<obs::Trace> trace;
  bool owns_trace = false;
  int32_t trace_parent = obs::Trace::kRootSpan;
  std::atomic<int32_t> queue_span{-1};
  std::atomic<int32_t> decode_span{-1};

  std::mutex mu;
  std::condition_variable cv;
  /// Set when the request takes a KV slot; the watchdog fails admitted
  /// requests that are not done, and spares the queued ones.
  bool admitted = false;
  bool done = false;
  FinishReason reason = FinishReason::kNone;
  util::Status status;
  std::vector<int64_t> tokens;
  double queue_ms = 0.0;
  double total_ms = 0.0;
  /// Submit -> first generated token (TTFT); 0 until a token exists.
  double first_token_ms = 0.0;
};

}  // namespace llm::serve

#endif  // TFMR_SERVE_REQUEST_H_
