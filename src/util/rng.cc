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

size_t AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

using normal_kernel::kChunkPairs;
using normal_kernel::kLanes;

// Writes `pairs` Box-Muller pairs drawn from s to out[0, 2 * pairs) and
// advances s past them. Returns the last pair's second variate: what
// Normal() leaves in its cache after handing that variate out.
//
// Chunk k starts 2 * k * kChunkPairs draws into the stream. The caller
// publishes each chunk's start state, reaching the next one by one
// JumpChunk, and then joins the claiming. A claim is kLanes consecutive
// chunks (fewer in the last), which the in-use copy fills side by side, one
// lane each; claims are taken from an atomic counter by the caller and by
// one worker per further allowed CPU, up to one a claim, so a stalled
// thread delays only the claim it holds. The fill's last pair is left out
// of the last claim: its filler draws it with ExactPair, because its second
// variate is returned as a double, and leaves its state where s ends. A
// thread that fails to spawn just means fewer workers: the caller alone
// would still fill every claim.
double FillPairs(uint64_t* s, float* out, size_t pairs, double mean,
                 double stddev) {
  const size_t chunks = (pairs + kChunkPairs - 1) / kChunkPairs;
  const size_t claims = (chunks + kLanes - 1) / kLanes;
  const size_t threads = claims > 1 ? AllowedCpus() : 1;
  const normal_kernel::Claim fill = normal_kernel::InUse().claim;
  std::vector<std::array<uint64_t, 4>> starts(chunks);
  std::atomic<size_t> published{0};  // starts[0, published) are final
  std::atomic<size_t> next{0};       // next claim to take
  // Written by the last claim's filler: the final state and second variate.
  std::array<uint64_t, 4> end{};
  double last_z1 = 0.0;
  const auto claim = [&] {
    while (true) {
      const size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= claims) return;
      const size_t first = c * kLanes;
      const size_t lanes = std::min(kLanes, chunks - first);
      while (published.load(std::memory_order_acquire) < first + lanes) {
        std::this_thread::yield();
      }
      normal_kernel::LaneStates states;
      for (size_t j = 0; j < lanes; ++j) {
        for (int w = 0; w < 4; ++w) states.s[w][j] = starts[first + j][w];
      }
      const bool last = first + lanes == chunks;
      const size_t last_pairs =
          last ? pairs - 1 - (chunks - 1) * kChunkPairs : kChunkPairs;
      fill(&states, lanes, last_pairs, out + 2 * first * kChunkPairs, mean,
           stddev);
      if (!last) continue;
      for (int w = 0; w < 4; ++w) end[w] = states.s[w][lanes - 1];
      const uint64_t a = normal_kernel::XoshiroNext(end.data());
      const uint64_t b = normal_kernel::XoshiroNext(end.data());
      last_z1 = normal_kernel::ExactPair(a, b, mean, stddev,
                                         out + 2 * (pairs - 1));
    }
  };
  // Declared after everything `claim` touches, so that it is destroyed,
  // joining any thread still running, before they are.
  std::vector<std::jthread> workers;
  const size_t spawn = std::min(threads, claims) - 1;
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

// Here, in default-target code, mean + stddev * z rounds twice, as in
// Normal(): fused into one FMA it could round a value on a float midpoint
// the other way.
double ExactPair(uint64_t a, uint64_t b, double mean, double stddev,
                 float* out) {
  double z0 = 0.0, z1 = 0.0;
  BoxMuller(a, b, &z0, &z1);
  out[0] = static_cast<float>(mean + stddev * z0);
  out[1] = static_cast<float>(mean + stddev * z1);
  return z1;
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
      XoshiroNext(s);
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

uint64_t Rng::NextU64() { return normal_kernel::XoshiroNext(state_); }

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
  if (pairs > 0) cached_normal_ = FillPairs(state_, out, pairs, mean, stddev);
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
