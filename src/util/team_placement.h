// Where the members of a new thread team start (Rng::FillNormal's team).
//
// Some hosts run all of a new process's unpinned threads on one CPU and
// do not balance them, so a team runs no faster than one thread. Pinning
// each member would stop the scheduler from moving it off a busy CPU. A
// member instead moves itself to its own CPU and then takes back the mask
// it inherited ("place, then release"): a mask that still holds the CPU a
// thread is on leaves it there, so it stays where it was put on a host
// that does not balance, and the scheduler can still move it on one that
// does.
#ifndef TFMR_UTIL_TEAM_PLACEMENT_H_
#define TFMR_UTIL_TEAM_PLACEMENT_H_

#include <sched.h>

#include <algorithm>
#include <cstddef>
#include <thread>
#include <vector>

namespace llm::util {

/// The calling thread's affinity mask, read once, and its CPUs in the
/// order a team takes them: every allowed CPU but the one the caller is on
/// (sched_getcpu()), then that one. Member m calls Place(m) from its own
/// thread before it works, so a team of up to size() members, the caller
/// its last, starts on distinct allowed CPUs.
class TeamPlacement {
 public:
  TeamPlacement() {
    CPU_ZERO(&mask_);
    if (sched_getaffinity(0, sizeof(mask_), &mask_) != 0) return;
    const int here = sched_getcpu();
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &mask_) && cpu != here) cpus_.push_back(cpu);
    }
    if (here >= 0 && CPU_ISSET(here, &mask_)) cpus_.push_back(here);
  }

  /// Allowed CPUs; the hardware's count if the mask could not be read.
  size_t size() const {
    return !cpus_.empty() ? cpus_.size()
                          : std::max(1u, std::thread::hardware_concurrency());
  }

  /// Moves the calling thread to the m-th CPU of the order, then gives it
  /// back the caller's mask. A failed call leaves the mask as it was;
  /// without a mask, or past its last CPU, nothing is done.
  void Place(size_t m) const {
    if (m >= cpus_.size()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[m], &one);
    if (sched_setaffinity(0, sizeof(one), &one) == 0) {
      sched_setaffinity(0, sizeof(mask_), &mask_);
    }
  }

 private:
  cpu_set_t mask_;
  std::vector<int> cpus_;
};

}  // namespace llm::util

#endif  // TFMR_UTIL_TEAM_PLACEMENT_H_
