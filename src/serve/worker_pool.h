// Fixed pool of worker threads executing per-tick fan-out work.
//
// The scheduler calls Run(n, fn) once per tick; workers claim indices
// 0..n-1 via an atomic counter and Run returns only after every index has
// been processed (a full barrier — required because the scheduler samples
// from the logits the workers just produced). With zero threads Run
// executes inline on the caller, which is the right configuration on a
// single-core host: the batched decode step already extracts the
// throughput win within one thread, and an extra hop through a worker
// thread would only add context switches.
#ifndef TFMR_SERVE_WORKER_POOL_H_
#define TFMR_SERVE_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace llm::serve {

class WorkerPool {
 public:
  /// Spawns `num_threads` workers; 0 means run everything inline, and a
  /// negative count is a checked error.
  explicit WorkerPool(int num_threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Number of execution lanes (>= 1); fn's second argument is in
  /// [0, lanes) and identifies which lane runs the item, letting callers
  /// hand each lane its own scratch buffers.
  int lanes() const { return lanes_; }

  /// Executes fn(i, lane) for every i in [0, n); returns when all are
  /// done. Must be called from one thread at a time (the scheduler).
  void Run(int64_t n, const std::function<void(int64_t, int)>& fn);

 private:
  void WorkerMain(int lane);

  const int lanes_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int64_t, int)>* fn_ = nullptr;  // guarded by mu_
  int64_t n_ = 0;                                          // guarded by mu_
  int64_t busy_ = 0;  // workers inside the claim loop, guarded by mu_
  uint64_t epoch_ = 0;                                     // guarded by mu_
  bool stop_ = false;                                      // guarded by mu_
  std::atomic<int64_t> next_{0};
};

}  // namespace llm::serve

#endif  // TFMR_SERVE_WORKER_POOL_H_
