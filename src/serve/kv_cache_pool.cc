#include "serve/kv_cache_pool.h"

namespace llm::serve {

KvCachePool::KvCachePool(const nn::GPTConfig& config, int64_t num_slots)
    : num_slots_(num_slots), n_layer_(config.n_layer) {
  LLM_CHECK_GT(num_slots, 0);
  LLM_CHECK_GT(config.max_seq_len, 0);
  const int64_t plane = config.max_seq_len * config.d_model;
  slab_ = ZeroedFloats(static_cast<size_t>(num_slots_) * n_layer_ * 2 *
                       static_cast<size_t>(plane));
  views_.resize(static_cast<size_t>(num_slots_) * n_layer_);
  for (int64_t s = 0; s < num_slots_; ++s) {
    float* base = slab_.data() +
                  static_cast<size_t>(s) * n_layer_ * 2 * static_cast<size_t>(plane);
    for (int l = 0; l < n_layer_; ++l) {
      nn::KvLayerView& v = views_[static_cast<size_t>(s * n_layer_ + l)];
      v.keys = base + static_cast<size_t>(2 * l) * plane;
      v.values = base + static_cast<size_t>(2 * l + 1) * plane;
    }
  }
  free_list_.reserve(static_cast<size_t>(num_slots_));
  // LIFO free list handed out from the back: slot 0 is leased first, which
  // keeps the hot working set at the front of the slab under low load.
  for (int64_t s = num_slots_ - 1; s >= 0; --s) free_list_.push_back(s);
  leased_.assign(static_cast<size_t>(num_slots_), 0);
  free_count_.store(num_slots_, std::memory_order_relaxed);
}

int64_t KvCachePool::Acquire() {
  if (free_list_.empty()) return -1;
  const int64_t slot = free_list_.back();
  free_list_.pop_back();
  leased_[static_cast<size_t>(slot)] = 1;
  free_count_.store(static_cast<int64_t>(free_list_.size()),
                    std::memory_order_relaxed);
  return slot;
}

void KvCachePool::Release(int64_t slot) {
  LLM_CHECK_GE(slot, 0);
  LLM_CHECK_LT(slot, num_slots_);
  LLM_CHECK(leased_[static_cast<size_t>(slot)] != 0);
  leased_[static_cast<size_t>(slot)] = 0;
  free_list_.push_back(slot);
  free_count_.store(static_cast<int64_t>(free_list_.size()),
                    std::memory_order_relaxed);
}

bool KvCachePool::leased(int64_t slot) const {
  LLM_CHECK_GE(slot, 0);
  LLM_CHECK_LT(slot, num_slots_);
  return leased_[static_cast<size_t>(slot)] != 0;
}

nn::KvLayerView* KvCachePool::slot_views(int64_t slot) {
  LLM_CHECK_GE(slot, 0);
  LLM_CHECK_LT(slot, num_slots_);
  return views_.data() + static_cast<size_t>(slot) * n_layer_;
}

}  // namespace llm::serve
