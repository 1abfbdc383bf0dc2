// Continuous (in-flight) batching scheduler.
//
// The classic serving dilemma: static batching waits to assemble a full
// batch (good throughput, bad latency) and holds every slot until the
// slowest member finishes (wasted compute on padding). Continuous batching
// dissolves it by rebuilding the batch every decode step: each Tick
// advances all active sequences by exactly one token through the fused
// batched step, finished sequences retire immediately (their KV slot
// returns to the pool), and newly admitted requests join mid-flight at
// their own position 0. Prefill is uniform with decode — prompt tokens are
// fed one per tick through the same path — so a long prompt never stalls
// the other lanes.
//
// Determinism contract: each sequence samples from its own seeded RNG over
// logits that do not depend on the batch width (nn/batched_decode.h) and so
// equal those of a dedicated GptInferenceSession, a one-lane call of the
// same step. A request's output is a pure function of the request —
// independent of what else shares the batch.
//
// Failure isolation: every sampled lane passes a numeric-health check
// before its logits feed the sampler. A lane whose logits come back
// NaN/Inf (a poisoned batch member) retires alone with FinishReason::
// kFault and an Internal status; the other lanes' outputs are untouched —
// each lane has its own logits buffer and KV slot, so one bad request can
// never corrupt its batch mates. Fault-injection sites (util/fault):
// kDecodeNaN poisons one lane's logits, kWorkerStall sleeps a worker past
// any reasonable tick budget, kSlotLeak drops a retiring slot's Release —
// repaired by the ReclaimLeakedSlots() sweep.
//
// Single-threaded driver: all methods are called from the server's
// scheduler thread only. Tick fans the forward pass out across the
// WorkerPool and returns after the barrier, so worker threads never touch
// scheduler state outside a Tick.
#ifndef TFMR_SERVE_BATCH_SCHEDULER_H_
#define TFMR_SERVE_BATCH_SCHEDULER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "nn/batched_decode.h"
#include "serve/kv_cache_pool.h"
#include "serve/request.h"
#include "serve/tenant.h"
#include "serve/worker_pool.h"
#include "serve/zeroed_floats.h"
#include "util/rng.h"

namespace llm::serve {

/// What one Tick produced, for the server to turn into side effects
/// (streaming callbacks, completion signals, stats).
struct TickOutput {
  struct Emitted {
    std::shared_ptr<RequestState> state;
    int64_t token = 0;
  };
  struct Finished {
    std::shared_ptr<RequestState> state;
    FinishReason reason = FinishReason::kNone;
    util::Status status;
  };
  std::vector<Emitted> tokens;
  std::vector<Finished> finished;
  /// Decode steps executed (== sequences stepped this tick).
  int64_t steps = 0;

  void Clear() {
    tokens.clear();
    finished.clear();
    steps = 0;
  }
};

class BatchScheduler {
 public:
  /// Neither pointer is owned; both must outlive the scheduler.
  BatchScheduler(const nn::GPTModel* model, KvCachePool* pool);

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  bool HasFreeSlot() const { return pool_->free_count() > 0; }
  /// Safe to read from any thread (feeds ServerStats::active_slots).
  int64_t active_count() const {
    return active_count_.load(std::memory_order_relaxed);
  }
  /// Active lanes currently held by `tenant`; any thread.
  int64_t ActivePerClass(TenantClass tenant) const {
    return active_per_class_[static_cast<int>(tenant)].load(
        std::memory_order_relaxed);
  }
  /// Fills `out` with all per-class active lane counts (for TryPopFair).
  void ActiveSnapshot(int64_t (&out)[kNumTenantClasses]) const {
    for (int c = 0; c < kNumTenantClasses; ++c) {
      out[c] = active_per_class_[c].load(std::memory_order_relaxed);
    }
  }

  /// True when PreemptFor(incoming, ...) would find a victim: some active
  /// lane belongs to a strictly lower-priority preemptible class AND
  /// displacing it keeps the incoming class within its weighted fair share
  /// ((active_in + 1) * w_victim <= active_victim * w_in — without this
  /// check a quota of chat arrivals could churn every batch lane).
  bool CanPreemptFor(TenantClass incoming, const TenantPolicy& policy) const;

  /// Retires the chosen victim with FinishReason::kPreempted (partial
  /// tokens preserved, status ResourceExhausted, KV slot back to the pool)
  /// and records a kPreempt flight event. Victim choice is deterministic:
  /// lowest-priority class first, then the lane with the most generated
  /// tokens (longest decode has the most resumable work banked), then the
  /// highest slot. Returns false when CanPreemptFor is false.
  bool PreemptFor(TenantClass incoming, const TenantPolicy& policy,
                  TickOutput* out);

  /// Leases a KV slot and joins the request to the in-flight batch at the
  /// next Tick. Caller must have checked HasFreeSlot(). Also stamps the
  /// request's queue_ms and marks it admitted.
  void Admit(std::shared_ptr<RequestState> state);

  /// Advances every active sequence by one token: expires cancelled /
  /// past-deadline sequences, runs the fused batched forward across the
  /// worker pool (scratch: one BatchedScratch per pool lane), samples, and
  /// retires finished sequences. Fills `out` with emissions/completions.
  /// Lanes whose logits fail the numeric-health check retire with kFault.
  void Tick(WorkerPool* workers, std::vector<nn::BatchedScratch>* scratch,
            TickOutput* out);

  /// Retires every active sequence with the given reason/status (server
  /// shutdown path).
  void DrainActive(FinishReason reason, const util::Status& status,
                   TickOutput* out);

  /// Returns leaked KV slots (leased in the pool but no longer backing any
  /// active sequence — the kSlotLeak failure mode) to the free list.
  /// Returns the number repaired; cheap O(num_slots) sweep.
  int64_t ReclaimLeakedSlots();

  /// Chaos hook (any thread): while set, every sampled lane's logits are
  /// poisoned non-finite, so the whole replica fails requests with kFault
  /// — the "model gone bad" failure mode a fleet router must detect.
  void SetDecodePoison(bool on) {
    poison_all_.store(on, std::memory_order_release);
  }

 private:
  struct ActiveSeq {
    bool occupied = false;
    std::shared_ptr<RequestState> state;
    util::Rng rng{0};
    int64_t pos = 0;         // tokens fed so far
    int64_t generated = 0;   // tokens sampled so far
    int64_t next_token = 0;  // token to feed at the next Tick
    int64_t sampled = -1;    // token sampled this tick (worker-written)
    bool faulted = false;    // non-finite logits this tick (worker-written)
  };

  void Retire(int64_t slot, FinishReason reason, const util::Status& status,
              TickOutput* out);
  /// Slot of the best preemption victim for `incoming`, or -1. Shared by
  /// CanPreemptFor / PreemptFor so the check and the action always agree.
  int64_t PickVictim(TenantClass incoming, const TenantPolicy& policy) const;

  const nn::GPTModel* model_;
  KvCachePool* pool_;
  std::vector<ActiveSeq> seqs_;       // indexed by KV slot
  ZeroedFloats logits_;              // [num_slots, vocab]
  std::vector<int64_t> active_idx_;  // slots stepped this tick (reused)
  std::vector<std::vector<nn::SeqStepInput>> chunk_inputs_;  // per chunk
  std::atomic<int64_t> active_count_{0};
  std::atomic<int64_t> active_per_class_[kNumTenantClasses] = {};
  std::atomic<bool> poison_all_{false};  // SetDecodePoison chaos hook
};

}  // namespace llm::serve

#endif  // TFMR_SERVE_BATCH_SCHEDULER_H_
