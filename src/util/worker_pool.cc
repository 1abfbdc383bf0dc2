#include "util/worker_pool.h"

#include <sched.h>

#include <algorithm>
#include <system_error>

#include "util/check.h"

namespace llm::util {
namespace {

// One lane's share of a Run: indices from `next` until none is left. No
// exception may leave it, since the other lanes would go on calling fn
// after Run had returned. A lane that woke after its Run returned holds
// a null fn and claims nothing, because that Run left next >= n.
void Claim(std::atomic<int64_t>& next, int64_t n,
           const std::function<void(int64_t, int)>* fn, int lane) noexcept {
  while (true) {
    const int64_t i = next.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) return;
    (*fn)(i, lane);
  }
}

// Moves the calling thread to `cpu`, then gives it back `mask`. A failed
// call leaves the mask as it was.
void PlaceThenRelease(int cpu, const cpu_set_t& mask) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) == 0) {
    sched_setaffinity(0, sizeof(mask), &mask);
  }
}

}  // namespace

int AllowedCpus() {
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) return CPU_COUNT(&mask);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

WorkerPool::WorkerPool(int lanes) {
  LLM_CHECK_GE(lanes, 1);
  if (lanes == 1) return;  // nothing to start, so no mask to read
  // The creator's CPUs in the order started lanes take them: every allowed
  // CPU but the one the creator is on, then that one.
  cpu_set_t mask;
  CPU_ZERO(&mask);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int here = sched_getcpu();
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &mask) && cpu != here) cpus.push_back(cpu);
    }
    if (here >= 0 && CPU_ISSET(here, &mask)) cpus.push_back(here);
  }
  threads_.reserve(static_cast<size_t>(lanes - 1));
  for (int lane = 1; lane < lanes; ++lane) {
    const size_t m = static_cast<size_t>(lane - 1);
    const int cpu = m < cpus.size() ? cpus[m] : -1;
    try {
      threads_.emplace_back([this, lane, cpu, mask] {
        if (cpu >= 0) PlaceThenRelease(cpu, mask);
        WorkerMain(lane);
      });
    } catch (const std::system_error&) {
      break;
    }
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
  Dispatch(n, fn, /*last=*/false);
}

void WorkerPool::RunLast(int64_t n,
                         const std::function<void(int64_t, int)>& fn) {
  Dispatch(n, fn, /*last=*/true);
}

void WorkerPool::Dispatch(int64_t n,
                          const std::function<void(int64_t, int)>& fn,
                          bool last) {
  if (n <= 0) return;
  std::unique_lock<std::mutex> lock(mu_);
  LLM_CHECK(!stop_) << "a WorkerPool runs nothing after RunLast";
  // A started lane that woke only after the previous Run returned has
  // copied that Run's cleared fn_ and old n_; let it leave the claim loop
  // before next_ is reset, or it would claim this Run's indices under them.
  done_cv_.wait(lock, [this] { return busy_ == 0; });
  fn_ = &fn;
  n_ = n;
  next_.store(0, std::memory_order_relaxed);
  ++epoch_;
  stop_ = last;
  lock.unlock();
  work_cv_.notify_all();
  Claim(next_, n, &fn, 0);
  // Every index is claimed. Completion also needs every started lane to
  // have *left* the claim loop: one still inside it could finish its index
  // after Run returned, or race the next Run's reset of next_.
  lock.lock();
  done_cv_.wait(lock, [this] { return busy_ == 0; });
  fn_ = nullptr;
}

void WorkerPool::WorkerMain(int lane) {
  uint64_t seen_epoch = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
    if (epoch_ == seen_epoch) return;  // stopped, with no run left to join
    seen_epoch = epoch_;
    const std::function<void(int64_t, int)>* fn = fn_;
    const int64_t n = n_;
    ++busy_;
    lock.unlock();
    Claim(next_, n, fn, lane);
    lock.lock();
    if (--busy_ == 0) done_cv_.notify_all();
  }
}

}  // namespace llm::util
