#include "serve/worker_pool.h"

#include "util/check.h"

namespace llm::serve {

WorkerPool::WorkerPool(int num_threads)
    : lanes_(num_threads > 0 ? num_threads : 1) {
  LLM_CHECK_GE(num_threads, 0);
  threads_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerMain(i); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void WorkerPool::Run(int64_t n, const std::function<void(int64_t, int)>& fn) {
  if (n <= 0) return;
  if (threads_.empty()) {
    for (int64_t i = 0; i < n; ++i) fn(i, 0);
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  // A worker that woke only after the previous Run returned has copied
  // that Run's cleared fn_ and old n_; let it leave the claim loop before
  // next_ is reset, or it would claim this Run's indices under them.
  done_cv_.wait(lock, [this] { return busy_ == 0; });
  fn_ = &fn;
  n_ = n;
  next_.store(0, std::memory_order_relaxed);
  ++epoch_;
  work_cv_.notify_all();
  // Completion means every participating worker has *left* the claim
  // loop, not merely that all indices were claimed: a worker still inside
  // the loop could otherwise race the next Run's reset of next_ and steal
  // its indices under a stale fn.
  done_cv_.wait(lock, [this] {
    return busy_ == 0 && next_.load(std::memory_order_relaxed) >= n_;
  });
  fn_ = nullptr;
}

void WorkerPool::WorkerMain(int lane) {
  uint64_t seen_epoch = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock,
                  [&] { return stop_ || epoch_ != seen_epoch; });
    if (stop_) return;
    seen_epoch = epoch_;
    const std::function<void(int64_t, int)>* fn = fn_;
    const int64_t n = n_;
    ++busy_;
    lock.unlock();
    while (true) {
      const int64_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      (*fn)(i, lane);
    }
    lock.lock();
    if (--busy_ == 0) done_cv_.notify_all();
  }
}

}  // namespace llm::serve
