#include "host_speed.h"

#include <sched.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

namespace llm::bench_e2e {
namespace {

// The reference is split into kParts equal parts, run one per CPU in turn.
constexpr int kParts = 4;
constexpr int kDrawsPerPart = (1 << 20) / kParts;

// xorshift64 draws turned into normals, one dependent step after another.
double NormalChain() {
  uint64_t s = 88172645463325252ull;
  const auto next = [&s] {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return static_cast<double>(s >> 11) * 0x1.0p-53;
  };
  double sum = 0.0;
  for (int i = 0; i < kDrawsPerPart; ++i) {
    const double u1 = 1.0 - next();
    const double u2 = next();
    sum += std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }
  return sum;
}

}  // namespace

double HostReferenceMs() {
  // The CPUs of a shared VM slow down independently of each other, so the
  // parts visit every CPU this thread may run on; without that list they
  // all run wherever the thread is.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    }
  }
  double total_ms = 0.0;
  volatile double sink = 0.0;
  for (int part = 0; part < kParts; ++part) {
    if (!cpus.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[part % cpus.size()], &one);
      sched_setaffinity(0, sizeof(one), &one);
    }
    const auto start = std::chrono::steady_clock::now();
    sink = sink + NormalChain();
    total_ms += std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  }
  if (!cpus.empty()) sched_setaffinity(0, sizeof(allowed), &allowed);
  return total_ms;
}

}  // namespace llm::bench_e2e
