// A fixed piece of work whose time tracks how fast the host runs right now.
//
// The benchmark runs on shared virtual machines whose speed drifts by a
// fifth or more over minutes. The set-up time and the closed-loop capacity
// it bounds are therefore scaled by the time this reference takes,
// measured in the same process right next to them while the server is
// idle. The benchmark owns this code and compiles it with fixed options
// (CMakeLists.txt), so a change to the program under test or to the
// repository's flags cannot move it; only the host can.
#ifndef TFMR_BENCH_E2E_HOST_SPEED_H_
#define TFMR_BENCH_E2E_HOST_SPEED_H_

namespace llm::bench_e2e {

/// Wall time of one pass of the reference, in ms: 2^20 Box-Muller draws
/// from a xorshift generator, a dependent scalar chain like weight init.
/// The pass is split into four parts, each run with the calling thread
/// pinned to the next CPU it may use, and its affinity is restored
/// afterwards.
double HostReferenceMs();

}  // namespace llm::bench_e2e

#endif  // TFMR_BENCH_E2E_HOST_SPEED_H_
