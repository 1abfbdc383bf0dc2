#include "util/rng.h"

#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <system_error>
#include <thread>

#include "util/normal_kernel.h"

namespace llm::util {

namespace {

uint64_t SplitMix64(uint64_t* x) {
  uint64_t z = (*x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// One xoshiro256** step on the 4-word state s.
uint64_t Xoshiro(uint64_t* s) {
  const uint64_t result = Rotl(s[1] * 5, 7) * 9;
  const uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = Rotl(s[3], 45);
  return result;
}

// 53 random mantissa bits -> uniform in [0, 1).
double ToUnit(uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

// Box-Muller on two successive raw draws; u1 in (0,1] keeps log finite.
// Normal() and FillNormal() both go through here, so their bits agree.
void BoxMuller(uint64_t a, uint64_t b, double* z0, double* z1) {
  const double u1 = 1.0 - ToUnit(a);
  const double u2 = ToUnit(b);
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  *z0 = r * std::cos(theta);
  *z1 = r * std::sin(theta);
}

// Writes static_cast<float>(Normal(mean, stddev)) for both variates of the
// pair drawn as a, b to out[0] and out[1]; returns the second variate.
double ExactPair(uint64_t a, uint64_t b, double mean, double stddev,
                 float* out) {
  double z0 = 0.0, z1 = 0.0;
  BoxMuller(a, b, &z0, &z1);
  out[0] = static_cast<float>(mean + stddev * z0);
  out[1] = static_cast<float>(mean + stddev * z1);
  return z1;
}

// Pairs per kernel call: 1 KiB of draws and 1 KiB of variates on the
// filling thread's stack.
constexpr size_t kBlockPairs = 64;

// Writes `pairs` Box-Muller pairs drawn from s to out[0, 2 * pairs) and
// advances s past them. Returns the last pair's second variate: what
// Normal() leaves in its cache after handing that variate out. Every pair
// but the last goes through the vectorized kernel a block at a time; a
// pair with a value the rounding check does not keep, and the last pair,
// whose second variate is returned as a double, go through ExactPair.
double FillPairs(uint64_t* s, float* out, size_t pairs, double mean,
                 double stddev) {
  if (pairs == 0) return 0.0;
  const normal_kernel::Kernel kernel = normal_kernel::Best();
  uint64_t a[kBlockPairs] = {}, b[kBlockPairs] = {};
  double z0[kBlockPairs] = {}, z1[kBlockPairs] = {};
  const size_t fast = pairs - 1;
  for (size_t p = 0; p < fast; p += kBlockPairs) {
    const size_t m = std::min(kBlockPairs, fast - p);
    for (size_t i = 0; i < m; ++i) {
      a[i] = Xoshiro(s);
      b[i] = Xoshiro(s);
    }
    kernel(a, b, m, z0, z1);
    float* o = out + 2 * p;
    // Branch-free, so it vectorizes; the rare block with a value not kept
    // is scanned again pair by pair.
    int all_kept = 1;
    for (size_t i = 0; i < m; ++i) {
      all_kept &= normal_kernel::KeepFloat(mean, stddev, z0[i], &o[2 * i]);
      all_kept &= normal_kernel::KeepFloat(mean, stddev, z1[i], &o[2 * i + 1]);
    }
    if (all_kept) continue;
    for (size_t i = 0; i < m; ++i) {
      float f[2] = {};
      if (!normal_kernel::KeepFloat(mean, stddev, z0[i], &f[0]) ||
          !normal_kernel::KeepFloat(mean, stddev, z1[i], &f[1])) {
        ExactPair(a[i], b[i], mean, stddev, &o[2 * i]);
      }
    }
  }
  const uint64_t last_a = Xoshiro(s);
  const uint64_t last_b = Xoshiro(s);
  return ExactPair(last_a, last_b, mean, stddev, out + 2 * fast);
}

size_t AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

constexpr size_t kChunkPairs = Rng::kFillNormalChunk / 2;

// FillPairs split at fixed offsets: chunk k starts 2 * k * kChunkPairs
// draws into the stream. The caller publishes each chunk's start state,
// reaching the next one by one JumpChunk; workers claim chunks as they
// come and do the log/sincos/sqrt. The caller joins the claiming once it
// has published them all, so `threads` threads compute, and a stalled one
// delays only the chunk it holds. The last chunk's filler leaves its state
// past the last pair, which is where s ends. A thread that fails to spawn
// just means fewer workers: the caller alone would still fill every chunk.
double FillPairsParallel(uint64_t* s, float* out, size_t pairs, double mean,
                         double stddev, size_t threads) {
  const size_t chunks = (pairs + kChunkPairs - 1) / kChunkPairs;
  std::vector<std::array<uint64_t, 4>> starts(chunks);
  std::atomic<size_t> published{0};  // starts[0, published) are final
  std::atomic<size_t> next{0};       // next chunk to claim
  // Written by the last chunk's filler: its final state and second variate.
  std::array<uint64_t, 4> end{};
  double last_z1 = 0.0;
  const auto claim = [&] {
    while (true) {
      const size_t k = next.fetch_add(1, std::memory_order_relaxed);
      if (k >= chunks) return;
      while (published.load(std::memory_order_acquire) <= k) {
        std::this_thread::yield();
      }
      std::array<uint64_t, 4> state = starts[k];
      const size_t begin = k * kChunkPairs;
      const double z1 = FillPairs(state.data(), out + 2 * begin,
                                  std::min(kChunkPairs, pairs - begin), mean,
                                  stddev);
      if (k + 1 == chunks) {
        end = state;
        last_z1 = z1;
      }
    }
  };
  // Declared after everything `claim` touches, so that it is destroyed,
  // joining any thread still running, before they are.
  std::vector<std::jthread> workers;
  const size_t spawn = std::min(threads, chunks) - 1;
  workers.reserve(spawn);
  for (size_t i = 0; i < spawn; ++i) {
    try {
      workers.emplace_back(claim);
    } catch (const std::system_error&) {
      break;
    }
  }
  for (size_t k = 0; k < chunks; ++k) {
    std::copy(s, s + 4, starts[k].begin());
    published.store(k + 1, std::memory_order_release);
    if (k + 1 < chunks) normal_kernel::JumpChunk(s);  // chunk k is whole
  }
  claim();
  for (auto& worker : workers) worker.join();
  std::copy(end.begin(), end.end(), s);
  return last_z1;
}

}  // namespace

namespace normal_kernel {

// mean + stddev * z lies within the kernel's error budget (2^-46 relative
// to libm, plus a few roundings) of the double Normal(mean, stddev) gives,
// far inside the 2^-40 slack. Rounding to float is monotone, so when both
// ends of the slack round to one float, that double does too. A float of
// +-0 is refused: -0 == +0, so the two ends may hide a sign.
bool KeepFloat(double mean, double stddev, double z, float* out) {
  const double t = stddev * z;
  const double y = mean + t;
  const double slack = 0x1p-40 * (std::fabs(mean) + std::fabs(t));
  const float lo = static_cast<float>(y - slack);
  const float hi = static_cast<float>(y + slack);
  *out = lo;
  return (lo == hi) & (lo != 0.0f);  // NaN compares unequal
}

// x^8192 mod the characteristic polynomial of the xoshiro256 state update,
// low word first. The update is linear over GF(2), and by Cayley–Hamilton
// 8192 updates are the same map as this polynomial in the update: the XOR,
// over its set bits j, of the state after j updates. Blackman and Vigna's
// jump() applies x^(2^128) this way; the derivation that gives these
// words (Berlekamp–Massey on the state's bits) gives theirs too.
constexpr uint64_t kChunkJump[4] = {
    0x669da12373880674ULL, 0xb1df898a4a6f1548ULL, 0x32104b94fe2534d3ULL,
    0xda66e09e52b341d1ULL};
static_assert(Rng::kFillNormalChunk == 8192,
              "kChunkJump is the jump polynomial for 8192 steps");

// Consumes the words as jump() consumes its constants, but with a mask per
// bit in place of jump()'s branch on it: inside a parallel fill, the masked
// loop measured faster, although a loop of nothing but jumps runs the
// branch faster once its predictor has learned the words.
void JumpChunk(uint64_t* s) {
  uint64_t t[4] = {0, 0, 0, 0};
  for (const uint64_t word : kChunkJump) {
    for (int bit = 0; bit < 64; ++bit) {
      const uint64_t mask = 0 - ((word >> bit) & 1);
      for (int i = 0; i < 4; ++i) t[i] ^= s[i] & mask;
      Xoshiro(s);
    }
  }
  std::copy(t, t + 4, s);
}

}  // namespace normal_kernel

void Rng::Seed(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
  have_cached_normal_ = false;
}

uint64_t Rng::NextU64() { return Xoshiro(state_); }

double Rng::Uniform() { return ToUnit(NextU64()); }

double Rng::Uniform(double lo, double hi) {
  LLM_CHECK_LE(lo, hi);
  return lo + (hi - lo) * Uniform();
}

uint64_t Rng::UniformInt(uint64_t n) {
  LLM_CHECK_GT(n, 0u);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0 - n) % n;
  for (;;) {
    uint64_t r = NextU64();
    if (r >= threshold) return r % n;
  }
}

double Rng::Normal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  const uint64_t a = NextU64();
  const uint64_t b = NextU64();
  double z0 = 0.0;
  BoxMuller(a, b, &z0, &cached_normal_);
  have_cached_normal_ = true;
  return z0;
}

void Rng::FillNormal(float* out, size_t n, double mean, double stddev) {
  if (n == 0) return;
  LLM_CHECK(out != nullptr);
  if (have_cached_normal_) {
    *out++ = static_cast<float>(Normal(mean, stddev));
    --n;
  }
  // Whole pairs leave the cache empty but holding the last pair's second
  // variate, as the sequential loop does; SaveState() exposes that field.
  const size_t pairs = n / 2;
  const size_t cpus = pairs >= 2 * kChunkPairs ? AllowedCpus() : 1;
  if (cpus > 1) {
    cached_normal_ = FillPairsParallel(state_, out, pairs, mean, stddev, cpus);
  } else if (pairs > 0) {
    cached_normal_ = FillPairs(state_, out, pairs, mean, stddev);
  }
  if (n % 2 != 0) out[n - 1] = static_cast<float>(Normal(mean, stddev));
}

namespace {
template <typename T>
size_t CategoricalImpl(Rng* rng, const std::vector<T>& weights) {
  double total = 0.0;
  for (T w : weights) {
    LLM_CHECK_GE(w, T(0));
    total += static_cast<double>(w);
  }
  LLM_CHECK_GT(total, 0.0) << "Categorical needs a positive weight";
  double u = rng->Uniform() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += static_cast<double>(weights[i]);
    if (u < acc) return i;
  }
  // Floating-point slack: fall back to the last positive weight.
  for (size_t i = weights.size(); i > 0; --i) {
    if (weights[i - 1] > T(0)) return i - 1;
  }
  return weights.size() - 1;
}
}  // namespace

size_t Rng::Categorical(const std::vector<double>& weights) {
  return CategoricalImpl(this, weights);
}
size_t Rng::Categorical(const std::vector<float>& weights) {
  return CategoricalImpl(this, weights);
}

Rng Rng::Fork() { return Rng(NextU64()); }

RngState Rng::SaveState() const {
  RngState st;
  for (int i = 0; i < 4; ++i) st.s[i] = state_[i];
  st.have_cached_normal = have_cached_normal_;
  st.cached_normal = cached_normal_;
  return st;
}

void Rng::RestoreState(const RngState& state) {
  for (int i = 0; i < 4; ++i) state_[i] = state.s[i];
  have_cached_normal_ = state.have_cached_normal;
  cached_normal_ = state.cached_normal;
}

}  // namespace llm::util
