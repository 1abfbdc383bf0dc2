// Reserved pool of per-sequence KV cache slots; faulted in on first use.
//
// All K/V storage for all slots is one contiguous slab reserved at
// construction and sized for the model window, so admitting a request is a
// free-list pop and retiring it is a push — the steady-state serving loop
// never touches the allocator, however many requests flow through. The
// slab starts all +0.0 without being written (ZeroedFloats): each page is
// faulted in, zeroed by the kernel, when a lane first writes it.
//
// Slot layout: per slot, n_layer x {keys, values} planes of
// [max_seq_len, d_model] rows, read through nn::KvLayerView. A leased
// slot's rows are not zeroed on Acquire; the decode step overwrites row
// `position` before reading it, so stale rows from the previous tenant are
// never observed.
//
// Threading: lease/release bookkeeping is owned and driven by the
// scheduler thread only (worker threads touch the leased storage, not the
// free list). The one exception is free_count(), a relaxed atomic mirror
// of the free-list size kept so ServerStats can report slot occupancy from
// any thread without racing the scheduler.
#ifndef TFMR_SERVE_KV_CACHE_POOL_H_
#define TFMR_SERVE_KV_CACHE_POOL_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "nn/batched_decode.h"
#include "nn/transformer.h"
#include "serve/zeroed_floats.h"

namespace llm::serve {

class KvCachePool {
 public:
  KvCachePool(const nn::GPTConfig& config, int64_t num_slots);

  KvCachePool(const KvCachePool&) = delete;
  KvCachePool& operator=(const KvCachePool&) = delete;

  int64_t num_slots() const { return num_slots_; }
  /// Safe to call from any thread (feeds ServerStats::free_slots).
  int64_t free_count() const {
    return free_count_.load(std::memory_order_relaxed);
  }

  /// Leases a slot; -1 when all slots are in flight.
  int64_t Acquire();

  /// Returns a leased slot to the free list. Aborts on double-release.
  void Release(int64_t slot);

  /// True iff `slot` is currently leased (scheduler thread only). The
  /// scheduler's leak-reclaim sweep cross-checks this against its own
  /// occupancy map: leased-but-unoccupied means the slot leaked.
  bool leased(int64_t slot) const;

  /// The n_layer KV views of a leased slot, for SeqStepInput::layers.
  nn::KvLayerView* slot_views(int64_t slot);

  /// Total slab size, for capacity logging.
  size_t bytes() const { return slab_.size() * sizeof(float); }

 private:
  const int64_t num_slots_;
  const int n_layer_;
  ZeroedFloats slab_;
  std::vector<nn::KvLayerView> views_;  // [num_slots, n_layer]
  std::vector<int64_t> free_list_;
  std::vector<char> leased_;
  std::atomic<int64_t> free_count_{0};
};

}  // namespace llm::serve

#endif  // TFMR_SERVE_KV_CACHE_POOL_H_
