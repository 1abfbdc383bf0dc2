#include "util/rng.h"

#include <sys/mman.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <optional>
#include <system_error>
#include <thread>

#include "util/huge_pages.h"
#include "util/normal_kernel.h"
#include "util/team_placement.h"

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

using normal_kernel::kChunkPairs;
using normal_kernel::kLanes;

size_t ChunksOf(size_t pairs) {
  return (pairs + kChunkPairs - 1) / kChunkPairs;
}

// Moves the state s past `pairs` pairs: one JumpChunk per whole chunk, then
// a walk of the rest, under kChunkPairs pairs.
void Advance(uint64_t* s, size_t pairs) {
  for (; pairs >= kChunkPairs; pairs -= kChunkPairs) {
    normal_kernel::JumpChunk(s);
  }
  for (size_t i = 0; i < 2 * pairs; ++i) normal_kernel::XoshiroNext(s);
}

// One nonempty output of a span fill, in the stream's order: its head, a
// variate the pair before it left (or the generator's cached one); its run
// of whole pairs, which claims fill; and its tail, a pair the caller draws
// itself: the pair that crosses into the next output (tail 1: its first
// variate ends this output, and its second is the next one's head, or the
// generator's cached variate), or the span's last pair (tail 2), whose
// second variate the generator keeps as a double.
struct Part {
  const NormalFill* fill;
  bool head;
  size_t pairs;        // from fill->out + head
  size_t tail;         // values the tail pair writes here: 0, 1 or 2
  size_t first_chunk;  // the run's chunk 0, numbered across all runs
  size_t first_claim;  // the run's claim 0, numbered likewise
};

// Faults in pages [first, last) of `pages`, numbered across the list in
// order, writable, without reading or writing them: MADV_POPULATE_WRITE
// (Linux 5.14). An older kernel's EINVAL leaves the faults to the fill.
void Populate(const std::vector<HugePages>& pages, size_t first, size_t last) {
  size_t base = 0;
  for (const HugePages& range : pages) {
    const size_t lo = std::max(first, base);
    const size_t hi = std::min(last, base + range.count);
    if (lo < hi) {
      madvise(reinterpret_cast<void*>(range.begin + (lo - base) * kHugePage),
              (hi - lo) * kHugePage, MADV_POPULATE_WRITE);
    }
    base += range.count;
  }
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

// Every output is planned first: its head, run and tail, its chunks and
// claims, and the whole huge pages inside it. A claim is kLanes
// consecutive chunks of one run (fewer at a run's end), which the in-use
// copy fills side by side, one lane each; chunk k of a run starts k *
// kChunkPairs pairs into it. Claims are taken from one atomic counter by
// the caller and by one worker per further allowed CPU, up to one a claim,
// so a stalled thread delays only the claim it holds. Each worker first
// moves itself to its own allowed CPU, away from the caller's, and takes
// back the caller's mask (TeamPlacement), so that a host which starts every
// new thread on one CPU still runs the team side by side; it then faults
// in its share of the huge pages, page-disjoint from every other
// member's. The caller meanwhile publishes every chunk's start in stream
// order, reaching the next by JumpChunk (a walk of the last partial chunk
// of each run), writes each head and draws each tail, and then faults in
// the last share, which the claims reach last, before it joins the
// claiming. A span of up to one claim's pairs runs on the caller alone. A
// thread that fails to spawn just means fewer workers (its pages are left
// to the fill): the caller alone would still fill every claim.
void Rng::FillNormal(std::span<const NormalFill> fills) {
  // The last output that draws a pair holds the stream's last pair.
  bool pending = have_cached_normal_;
  size_t last = fills.size();
  for (size_t i = 0; i < fills.size(); ++i) {
    const size_t n = fills[i].n;
    if (n == 0) continue;
    LLM_CHECK(fills[i].out != nullptr);
    if (n > size_t{pending}) last = i;
    pending = (n - pending) % 2 != 0;
  }
  std::vector<Part> parts;
  std::vector<HugePages> pages;
  size_t chunks = 0, claims = 0, run_pairs = 0, page_count = 0;
  pending = have_cached_normal_;
  for (size_t i = 0; i < fills.size(); ++i) {
    const NormalFill& f = fills[i];
    if (f.n == 0) continue;
    const size_t drawn = f.n - pending;  // values from this output's pairs
    const size_t tail = drawn % 2 != 0 ? 1 : i == last && drawn > 0 ? 2 : 0;
    parts.push_back({&f, pending, (drawn - tail) / 2, tail, chunks, claims});
    const size_t run_chunks = ChunksOf(parts.back().pairs);
    chunks += run_chunks;
    claims += (run_chunks + kLanes - 1) / kLanes;
    run_pairs += parts.back().pairs;
    pending = tail == 1;
    const HugePages whole = WholeHugePages(f.out, f.n * sizeof(float));
    if (whole.count > 0) pages.push_back(whole);
    page_count += whole.count;
  }

  std::optional<TeamPlacement> placement;
  if (run_pairs > kLanes * kChunkPairs) placement.emplace();
  const size_t team = placement ? std::min(placement->size(), claims) : 1;
  const normal_kernel::Claim fill = normal_kernel::InUse().claim;
  std::vector<std::array<uint64_t, 4>> starts(chunks);
  std::atomic<size_t> published{0};  // starts[0, published) are final
  std::atomic<size_t> next{0};       // next claim to take
  const auto claim = [&] {
    while (true) {
      const size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= claims) return;
      // The last part whose first claim is at most c: a run with no pairs
      // has no claim, so it is never the one.
      const Part& part = *(std::upper_bound(parts.begin(), parts.end(), c,
                                            [](size_t k, const Part& p) {
                                              return k < p.first_claim;
                                            }) -
                           1);
      const size_t run_chunks = ChunksOf(part.pairs);
      const size_t first = (c - part.first_claim) * kLanes;
      const size_t lanes = std::min(kLanes, run_chunks - first);
      const size_t global = part.first_chunk + first;
      while (published.load(std::memory_order_acquire) < global + lanes) {
        std::this_thread::yield();
      }
      normal_kernel::LaneStates states;
      for (size_t j = 0; j < lanes; ++j) {
        for (int w = 0; w < 4; ++w) states.s[w][j] = starts[global + j][w];
      }
      const size_t last_pairs =
          first + lanes == run_chunks
              ? part.pairs - (run_chunks - 1) * kChunkPairs
              : kChunkPairs;
      const NormalFill& f = *part.fill;
      fill(&states, lanes, last_pairs,
           f.out + part.head + 2 * first * kChunkPairs, f.mean, f.stddev);
    }
  };
  // Member m of the team faults in pages [m * P / team, (m + 1) * P / team)
  // of the P whole huge pages; the caller is the last member.
  const auto populate = [&](size_t m) {
    Populate(pages, m * page_count / team, (m + 1) * page_count / team);
  };
  // Declared after everything the workers touch, so that it is destroyed,
  // joining any thread still running, before they are.
  std::vector<std::jthread> workers;
  workers.reserve(team - 1);
  for (size_t m = 0; m + 1 < team; ++m) {
    try {
      workers.emplace_back([&placement, &populate, &claim, m] {
        placement->Place(m);
        populate(m);
        claim();
      });
    } catch (const std::system_error&) {
      break;
    }
  }

  // The second variate of the last pair drawn: the next head's value while
  // one is pending, and at the end cached_normal, which the sequential loop
  // leaves holding it even when the cache is empty (SaveState() exposes
  // that field).
  double last_z1 = cached_normal_;
  for (const Part& part : parts) {
    const NormalFill& f = *part.fill;
    if (part.head) f.out[0] = static_cast<float>(f.mean + f.stddev * last_z1);
    const size_t run_chunks = ChunksOf(part.pairs);
    for (size_t k = 0; k < run_chunks; ++k) {
      std::copy(state_, state_ + 4, starts[part.first_chunk + k].begin());
      published.store(part.first_chunk + k + 1, std::memory_order_release);
      Advance(state_, std::min(kChunkPairs, part.pairs - k * kChunkPairs));
    }
    if (part.tail > 0) {
      const uint64_t a = NextU64();
      const uint64_t b = NextU64();
      double z0 = 0.0;
      BoxMuller(a, b, &z0, &last_z1);
      float* out = f.out + part.head + 2 * part.pairs;
      out[0] = static_cast<float>(f.mean + f.stddev * z0);
      if (part.tail == 2) {
        out[1] = static_cast<float>(f.mean + f.stddev * last_z1);
      }
    }
  }
  have_cached_normal_ = pending;
  cached_normal_ = last_z1;
  populate(team - 1);
  claim();
  for (auto& worker : workers) worker.join();
}

namespace {
template <typename T>
size_t CategoricalImpl(Rng* rng, const T* weights, size_t n) {
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    LLM_CHECK_GE(weights[i], T(0));
    total += static_cast<double>(weights[i]);
  }
  LLM_CHECK_GT(total, 0.0) << "Categorical needs a positive weight";
  double u = rng->Uniform() * total;
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    acc += static_cast<double>(weights[i]);
    if (u < acc) return i;
  }
  // Floating-point slack: fall back to the last positive weight.
  for (size_t i = n; i > 0; --i) {
    if (weights[i - 1] > T(0)) return i - 1;
  }
  return n - 1;
}
}  // namespace

size_t Rng::Categorical(const std::vector<double>& weights) {
  return CategoricalImpl(this, weights.data(), weights.size());
}
size_t Rng::Categorical(const std::vector<float>& weights) {
  return CategoricalImpl(this, weights.data(), weights.size());
}
size_t Rng::Categorical(const float* weights, size_t n) {
  return CategoricalImpl(this, weights, n);
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
