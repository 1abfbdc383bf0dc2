#include "serve/batch_scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <utility>

#include "obs/flight_recorder.h"
#include "sample/sampler.h"
#include "util/fault.h"

namespace llm::serve {
namespace {

// Preferred sequences per worker chunk. The fused kernels win by streaming
// each weight row across many lanes, so splitting the batch thinner than
// this for the sake of thread fan-out costs more than it buys.
constexpr int64_t kPreferredSubBatch = 4;

// How long an injected kWorkerStall sleeps. Long enough that any sane tick
// budget (tests use 5-20ms) sees the tick as stalled; short enough that
// chaos schedules firing a handful of stalls stay fast.
constexpr int kInjectedStallMs = 30;

// Numeric-health check for one lane's logits: every sampled lane must
// produce finite logits before they feed the sampler.
bool LaneFinite(const float* logits, int64_t vocab) {
  for (int64_t v = 0; v < vocab; ++v) {
    if (!std::isfinite(logits[v])) return false;
  }
  return true;
}

}  // namespace

BatchScheduler::BatchScheduler(const nn::GPTModel* model, KvCachePool* pool)
    : model_(model), pool_(pool) {
  LLM_CHECK(model != nullptr);
  LLM_CHECK(pool != nullptr);
  seqs_.resize(static_cast<size_t>(pool->num_slots()));
  logits_ = ZeroedFloats(static_cast<size_t>(pool->num_slots()) *
                         static_cast<size_t>(model->config().vocab_size));
  active_idx_.reserve(static_cast<size_t>(pool->num_slots()));
}

void BatchScheduler::Admit(std::shared_ptr<RequestState> state) {
  const int64_t slot = pool_->Acquire();
  LLM_CHECK_GE(slot, 0);  // caller must have checked HasFreeSlot()
  ActiveSeq& seq = seqs_[static_cast<size_t>(slot)];
  LLM_CHECK(!seq.occupied);
  seq.occupied = true;
  seq.rng = util::Rng(state->request.seed);
  seq.pos = 0;
  seq.generated = 0;
  seq.next_token = state->request.prompt.front();
  seq.sampled = -1;
  seq.faulted = false;
  const double queue_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - state->submit_time)
          .count();
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->queue_ms = queue_ms;
    state->admitted = true;
  }
  obs::FlightRecorder::Global().Record(obs::FlightEventType::kAdmission,
                                       static_cast<int32_t>(slot),
                                       static_cast<int64_t>(state->id));
  if (state->trace) {
    state->trace->EndSpan(state->queue_span.load(std::memory_order_acquire),
                          "admitted");
    state->decode_span.store(
        state->trace->BeginSpan("decode", state->trace_parent, slot),
        std::memory_order_release);
  }
  ++active_per_class_[static_cast<int>(state->request.tenant)];
  seq.state = std::move(state);
  ++active_count_;
}

void BatchScheduler::Retire(int64_t slot, FinishReason reason,
                            const util::Status& status, TickOutput* out) {
  ActiveSeq& seq = seqs_[static_cast<size_t>(slot)];
  obs::FlightRecorder::Global().Record(
      obs::FlightEventType::kRetirement, static_cast<int32_t>(reason),
      static_cast<int64_t>(seq.state->id), seq.generated);
  --active_per_class_[static_cast<int>(seq.state->request.tenant)];
  out->finished.push_back({std::move(seq.state), reason, status});
  seq.state = nullptr;
  seq.occupied = false;
  if (!util::MaybeInjectFault(util::FaultSite::kSlotLeak)) {
    pool_->Release(slot);
  }
  // Injected leak: the slot stays leased with no occupant. The server's
  // per-iteration ReclaimLeakedSlots() sweep detects and repairs it.
  --active_count_;
}

int64_t BatchScheduler::PickVictim(TenantClass incoming,
                                   const TenantPolicy& policy) const {
  const int in_cls = static_cast<int>(incoming);
  const int64_t w_in = std::max(policy.classes[in_cls].weight, 1);
  const int64_t active_in = ActivePerClass(incoming);
  // Lowest-priority (highest-index) class first, so background lanes are
  // always displaced before batch lanes.
  for (int cls = kNumTenantClasses - 1; cls > in_cls; --cls) {
    if (!policy.classes[cls].preemptible) continue;
    const int64_t active_victim =
        active_per_class_[cls].load(std::memory_order_relaxed);
    if (active_victim == 0) continue;
    // Fairness gate: after the displacement the incoming class must still
    // be at or under its weighted share relative to the victim class —
    // otherwise a stream of high-priority arrivals would churn every
    // low-priority lane instead of sharing by weight.
    const int64_t w_victim = std::max(policy.classes[cls].weight, 1);
    if ((active_in + 1) * w_victim > active_victim * w_in) continue;
    int64_t best = -1;
    for (int64_t slot = 0; slot < pool_->num_slots(); ++slot) {
      const ActiveSeq& seq = seqs_[static_cast<size_t>(slot)];
      if (!seq.occupied ||
          static_cast<int>(seq.state->request.tenant) != cls) {
        continue;
      }
      // Longest decode first: it has the most resumable work banked and
      // would otherwise hold its lane the longest. Ties break to the
      // highest slot so the choice is deterministic.
      if (best < 0 ||
          seq.generated >= seqs_[static_cast<size_t>(best)].generated) {
        best = slot;
      }
    }
    if (best >= 0) return best;
  }
  return -1;
}

bool BatchScheduler::CanPreemptFor(TenantClass incoming,
                                   const TenantPolicy& policy) const {
  return PickVictim(incoming, policy) >= 0;
}

bool BatchScheduler::PreemptFor(TenantClass incoming,
                                const TenantPolicy& policy, TickOutput* out) {
  const int64_t slot = PickVictim(incoming, policy);
  if (slot < 0) return false;
  obs::FlightRecorder::Global().Record(
      obs::FlightEventType::kPreempt, static_cast<int32_t>(incoming),
      static_cast<int64_t>(seqs_[static_cast<size_t>(slot)].state->id),
      seqs_[static_cast<size_t>(slot)].generated);
  Retire(slot, FinishReason::kPreempted,
         util::Status::ResourceExhausted(
             "preempted: lane reclaimed for a higher-priority tenant; "
             "partial output returned, resubmit to resume"),
         out);
  return true;
}

int64_t BatchScheduler::ReclaimLeakedSlots() {
  int64_t repaired = 0;
  for (int64_t slot = 0; slot < pool_->num_slots(); ++slot) {
    if (pool_->leased(slot) && !seqs_[static_cast<size_t>(slot)].occupied) {
      pool_->Release(slot);
      ++repaired;
    }
  }
  return repaired;
}

void BatchScheduler::Tick(util::WorkerPool* workers,
                          std::vector<nn::BatchedScratch>* scratch,
                          TickOutput* out) {
  out->Clear();
  const auto now = std::chrono::steady_clock::now();

  // Expire cancelled / past-deadline sequences before spending compute.
  active_idx_.clear();
  for (int64_t slot = 0; slot < pool_->num_slots(); ++slot) {
    ActiveSeq& seq = seqs_[static_cast<size_t>(slot)];
    if (!seq.occupied) continue;
    if (seq.state->cancel_requested.load(std::memory_order_acquire)) {
      Retire(slot, FinishReason::kCancelled,
             util::Status::Cancelled("cancelled by client"), out);
      continue;
    }
    if (now >= seq.state->deadline) {
      Retire(slot, FinishReason::kDeadline,
             util::Status::DeadlineExceeded("deadline expired in flight"), out);
      continue;
    }
    active_idx_.push_back(slot);
  }
  const int64_t n_active = static_cast<int64_t>(active_idx_.size());
  if (n_active == 0) return;
  out->steps = n_active;

  // Partition into contiguous chunks. Fewer, fatter chunks beat maximal
  // fan-out: each chunk is one fused BatchedDecodeStep call, and its
  // efficiency grows with its lane count.
  const int64_t lanes = workers->lanes();
  const int64_t n_chunks = std::max<int64_t>(
      1, std::min<int64_t>(lanes, (n_active + kPreferredSubBatch - 1) /
                                      kPreferredSubBatch));
  LLM_CHECK_LE(lanes, static_cast<int64_t>(scratch->size()));
  chunk_inputs_.resize(static_cast<size_t>(n_chunks));
  const int64_t base = n_active / n_chunks;
  const int64_t rem = n_active % n_chunks;
  const int64_t vocab = model_->config().vocab_size;
  const int64_t max_len = model_->config().max_seq_len;

  workers->Run(n_chunks, [&](int64_t chunk, int lane) {
    const int64_t begin = chunk * base + std::min(chunk, rem);
    const int64_t end = begin + base + (chunk < rem ? 1 : 0);
    std::vector<nn::SeqStepInput>& inputs =
        chunk_inputs_[static_cast<size_t>(chunk)];
    inputs.clear();
    for (int64_t k = begin; k < end; ++k) {
      const int64_t slot = active_idx_[static_cast<size_t>(k)];
      ActiveSeq& seq = seqs_[static_cast<size_t>(slot)];
      inputs.push_back({seq.next_token, seq.pos, pool_->slot_views(slot),
                        logits_.data() + static_cast<size_t>(slot) * vocab});
    }
    if (util::MaybeInjectFault(util::FaultSite::kWorkerStall)) {
      // A wedged worker: the whole tick overruns its budget, which is what
      // the server's watchdog exists to catch.
      std::this_thread::sleep_for(std::chrono::milliseconds(kInjectedStallMs));
    }
    nn::BatchedDecodeStep(*model_, inputs.data(),
                          static_cast<int64_t>(inputs.size()),
                          &(*scratch)[static_cast<size_t>(lane)]);
    // Advance and sample inside the worker: each sequence belongs to
    // exactly one chunk, so this mutation is race-free, and sampling here
    // parallelizes the top-k/top-p work along with the forward pass.
    for (int64_t k = begin; k < end; ++k) {
      const int64_t slot = active_idx_[static_cast<size_t>(k)];
      ActiveSeq& seq = seqs_[static_cast<size_t>(slot)];
      ++seq.pos;
      const auto& req = seq.state->request;
      float* lane_logits = logits_.data() + static_cast<size_t>(slot) * vocab;
      // Mirrors sample::GenerateWithSession: a sampling step happens only
      // once the whole prompt is in and while the window has room.
      if (seq.pos >= static_cast<int64_t>(req.prompt.size()) &&
          seq.pos < max_len) {
        if (util::MaybeInjectFault(util::FaultSite::kDecodeNaN) ||
            poison_all_.load(std::memory_order_acquire)) {
          lane_logits[0] = std::numeric_limits<float>::quiet_NaN();
        }
        // Poisoned-lane guard: NaN/Inf logits retire this lane alone; its
        // logits buffer and KV slot are private, so batch mates are
        // bit-exact whatever happened here.
        if (!LaneFinite(lane_logits, vocab)) {
          seq.faulted = true;
          seq.sampled = -1;
        } else {
          seq.sampled = sample::SampleFromLogits(lane_logits, vocab,
                                                 req.sampler, &seq.rng);
        }
      } else {
        seq.sampled = -1;
      }
    }
  });

  // Post-barrier bookkeeping, in slot order for deterministic event order.
  for (int64_t k = 0; k < n_active; ++k) {
    const int64_t slot = active_idx_[static_cast<size_t>(k)];
    ActiveSeq& seq = seqs_[static_cast<size_t>(slot)];
    const auto& req = seq.state->request;
    if (seq.faulted) {
      Retire(slot, FinishReason::kFault,
             util::Status::Internal("non-finite logits in decode lane (slot " +
                                    std::to_string(slot) + ")"),
             out);
      continue;
    }
    if (seq.sampled >= 0) {
      ++seq.generated;
      {
        std::lock_guard<std::mutex> lock(seq.state->mu);
        seq.state->tokens.push_back(seq.sampled);
        if (seq.generated == 1) {
          // TTFT: submit -> first sampled token, the latency interactive
          // tenants' SLOs are pinned to.
          seq.state->first_token_ms =
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - seq.state->submit_time)
                  .count();
        }
      }
      if (seq.state->trace) {
        seq.state->trace->Event(
            "step", seq.state->decode_span.load(std::memory_order_acquire),
            seq.sampled);
      }
      out->tokens.push_back({seq.state, seq.sampled});
      // Finish precedence mirrors the single-stream generation loop:
      // stop token, then length, then window exhaustion. A token that
      // would fill the window's last slot is never fed: no step would
      // sample from its logits.
      if (seq.sampled == req.stop_token) {
        Retire(slot, FinishReason::kStop, util::Status::OK(), out);
      } else if (seq.generated >= req.max_new_tokens) {
        Retire(slot, FinishReason::kLength, util::Status::OK(), out);
      } else if (seq.pos + 1 >= max_len) {
        Retire(slot, FinishReason::kWindow, util::Status::OK(), out);
      } else {
        seq.next_token = seq.sampled;
      }
    } else if (seq.pos < static_cast<int64_t>(req.prompt.size())) {
      seq.next_token = req.prompt[static_cast<size_t>(seq.pos)];  // prefill
    } else {
      // Prompt consumed but the window is full: nothing left to sample.
      Retire(slot, FinishReason::kWindow, util::Status::OK(), out);
    }
  }
}

void BatchScheduler::DrainActive(FinishReason reason,
                                 const util::Status& status, TickOutput* out) {
  for (int64_t slot = 0; slot < pool_->num_slots(); ++slot) {
    if (seqs_[static_cast<size_t>(slot)].occupied) {
      Retire(slot, reason, status, out);
    }
  }
}

}  // namespace llm::serve
