// Fixed team of threads that runs one indexed loop at a time: the serving
// tick's chunks and Rng::FillNormal's team.
//
// Run(n, fn) hands out indices 0..n-1 in order from one atomic counter and
// returns once every index is done (a full barrier: the caller reads what
// the lanes wrote). The caller of Run is lane 0 and claims beside the
// started threads, so one lane starts no thread. Lanes block between runs;
// after RunLast (a one-run pool's run, as FillNormal's) they end instead.
//
// Some hosts run all of a new process's unpinned threads on one CPU and do
// not balance them; pinning would stop the scheduler from moving a lane off
// a busy CPU. So each started lane moves itself to its own CPU, then takes
// back the mask it inherited ("place, then release"): the kernel leaves a
// thread on a CPU its mask still holds, so the lane stays put on a host
// that does not balance and can still be moved on one that does.
#ifndef TFMR_UTIL_WORKER_POOL_H_
#define TFMR_UTIL_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace llm::util {

/// CPUs in the calling thread's affinity mask; the hardware's count if the
/// mask cannot be read.
int AllowedCpus();

class WorkerPool {
 public:
  /// A pool of `lanes` lanes (>= 1, checked): the caller of Run and
  /// lanes - 1 started threads. Started lane m is placed on the m-th CPU of
  /// the creator's mask other than the one the creator is on
  /// (sched_getcpu()); past the last, or if a call fails, it stays where it
  /// started. A thread that fails to start leaves fewer lanes.
  explicit WorkerPool(int lanes);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Number of execution lanes (>= 1); fn's second argument is in
  /// [0, lanes) and identifies which lane runs the item, letting callers
  /// hand each lane its own scratch buffers.
  int lanes() const { return static_cast<int>(threads_.size()) + 1; }

  /// Executes fn(i, lane) for every i in [0, n); returns when all are
  /// done. Must be called from one thread at a time, and fn must not
  /// throw: an exception on any lane ends the program.
  void Run(int64_t n, const std::function<void(int64_t, int)>& fn);

  /// Run(n, fn) as the pool's last run: each started lane ends its thread
  /// as soon as it leaves the claim loop, instead of parking until the
  /// destructor wakes it, so the destructor joins threads that are already
  /// ending (a parked lane's wake-up is most of a one-run pool's
  /// tear-down). No Run may follow (checked).
  void RunLast(int64_t n, const std::function<void(int64_t, int)>& fn);

 private:
  void Dispatch(int64_t n, const std::function<void(int64_t, int)>& fn,
                bool last);
  void WorkerMain(int lane);

  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int64_t, int)>* fn_ = nullptr;  // guarded by mu_
  int64_t n_ = 0;                                          // guarded by mu_
  int64_t busy_ = 0;  // started lanes inside the claim loop, guarded by mu_
  uint64_t epoch_ = 0;                                     // guarded by mu_
  bool stop_ = false;  // no run follows the current one; guarded by mu_
  std::atomic<int64_t> next_{0};
};

}  // namespace llm::util

#endif  // TFMR_UTIL_WORKER_POOL_H_
