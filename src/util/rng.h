// Deterministic pseudo-random number generation.
//
// All stochastic components of the library (init, sampling, data generation)
// take an explicit Rng so that every experiment is reproducible from a seed.
// The generator is xoshiro256** (public domain, Blackman & Vigna): fast,
// high quality, and — unlike std::mt19937 distributions — bit-identical
// across standard library implementations.
#ifndef TFMR_UTIL_RNG_H_
#define TFMR_UTIL_RNG_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/check.h"

namespace llm::util {

/// Complete serializable Rng state: the 256-bit xoshiro state plus the
/// Box-Muller cache. Restoring it resumes the exact random stream, which
/// checkpoint/resume relies on for bit-exact training replays.
struct RngState {
  uint64_t s[4] = {0, 0, 0, 0};
  bool have_cached_normal = false;
  double cached_normal = 0.0;
};

/// One output of a span FillNormal: n floats at out, each
/// static_cast<float>(Normal(mean, stddev)).
struct NormalFill {
  float* out = nullptr;
  size_t n = 0;
  double mean = 0.0;
  double stddev = 1.0;
};

/// Seedable xoshiro256** generator with convenience distributions.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) { Seed(seed); }

  /// Re-seeds the full 256-bit state from a 64-bit seed via splitmix64.
  void Seed(uint64_t seed);

  /// Next raw 64 random bits.
  uint64_t NextU64();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Standard normal via Box-Muller (caches the second variate).
  double Normal();

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev) { return mean + stddev * Normal(); }

  /// Writes exactly what FillNormal on each output in order would, and
  /// leaves the generator (SaveState() included) exactly where those calls
  /// would: what successive static_cast<float>(Normal(mean, stddev)) calls
  /// write, with each output's mean and stddev. One pass over all outputs:
  /// each output's stream is split into chunks, drawn eight at a time side
  /// by side, and a span of more than eight chunks' pairs shares them with
  /// up to one thread per further CPU in the caller's affinity mask, each
  /// of which first moves to its own CPU of that mask, then faults in its
  /// own share of the whole 2 MiB pages inside the outputs; the values
  /// never depend on the thread count, on placement or on timing. The
  /// caller's own affinity mask is left as it was. Outputs must not
  /// overlap.
  void FillNormal(std::span<const NormalFill> fills);

  /// The one-output FillNormal: what `n` successive
  /// `static_cast<float>(Normal(mean, stddev))` calls would write.
  void FillNormal(float* out, size_t n, double mean, double stddev) {
    const NormalFill fill{out, n, mean, stddev};
    FillNormal(std::span<const NormalFill>(&fill, 1));
  }

  /// Values per chunk of a FillNormal: chunk k of an output's whole pairs
  /// starts k * kFillNormalChunk draws into them.
  static constexpr size_t kFillNormalChunk = 8192;

  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Samples an index from an (unnormalized, non-negative) weight vector.
  /// Requires at least one strictly positive weight.
  size_t Categorical(const std::vector<double>& weights);
  size_t Categorical(const std::vector<float>& weights);
  /// The same draw over weights[0, n).
  size_t Categorical(const float* weights, size_t n);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    LLM_CHECK(v != nullptr);
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = UniformInt(i);
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// Derives an independent child generator (for per-worker streams).
  Rng Fork();

  /// Snapshot / restore the full generator state (for checkpointing).
  RngState SaveState() const;
  void RestoreState(const RngState& state);

 private:
  uint64_t state_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace llm::util

#endif  // TFMR_UTIL_RNG_H_
