// The per-pair work behind Rng::FillNormal (see normal_kernel.h): the lane
// draws, the Box–Muller kernel, the rounding check and the stores.
//
// Each stage's loop is plain arithmetic GCC can vectorize: no libm call,
// no int64 <-> double conversion, and no branch but selects. This is the
// only file built with -fno-math-errno (so std::sqrt becomes one
// instruction) and -fno-trapping-math (so the selects become blends); the
// bodies are built three times, for the baseline target, for AVX2 with
// FMA and for AVX-512 with FMA, and InUse() picks once by CPUID.
//
// The lanes step through XoshiroNext on 32- and 64-byte vectors, which GCC
// notes would be returned differently with and without AVX and AVX-512.
// Every call is inlined into one copy, so no call crosses that ABI.
#pragma GCC diagnostic ignored "-Wpsabi"

#include "util/normal_kernel.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

namespace llm::util::normal_kernel {
namespace {

constexpr uint64_t kOneBits = 0x3ff0000000000000ULL;       // 1.0
constexpr uint64_t kTwoToMinus53Bits = 0x3ca0000000000000ULL;
constexpr uint64_t kTwoTo52Bits = 0x4330000000000000ULL;   // 2^52
constexpr uint64_t kMantissaMask = 0x000fffffffffffffULL;

constexpr double kSqrt2 = 1.41421356237309504880;
// ln 2 = kLn2Hi + kLn2Lo; kLn2Hi's low 32 bits are zero, so e * kLn2Hi is
// exact for every exponent here.
constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;
// pi/2 = kPio2A + kPio2B + kPio2C to about 2^-122; A and B carry 33
// significant bits, so k * A and k * B are exact for the k <= 4 here.
constexpr double kPio2A = 1.57079632673412561417e+00;
constexpr double kPio2B = 6.07710050630396597660e-11;
constexpr double kPio2C = 2.02226624879595063154e-21;
constexpr double kTwoOverPi = 6.36619772367581382433e-01;
// Adding this rounds |x| < 2^51 to an integer held in the low mantissa bits.
constexpr double kRoundMagic = 0x1.8p52;

// (x >> 11) * 2^-53, exactly, as Rng's ToUnit: the top 52 of the 53 bits
// as a [1, 2) mantissa minus one, plus the last bit's 2^-53. The sum has
// 53 significant bits, so it is exact too.
[[gnu::always_inline]] inline double ToUnit(uint64_t x) {
  const uint64_t m = x >> 11;
  const double hi = std::bit_cast<double>(kOneBits | (m >> 1)) - 1.0;
  const double lo = std::bit_cast<double>((0 - (m & 1)) & kTwoToMinus53Bits);
  return hi + lo;
}

// log(u) for u in [2^-53, 1]: u = 2^e * f with f in [sqrt(1/2), sqrt(2)],
// log f = 2 atanh(t), t = (f - 1) / (f + 1), |t| <= 0.1716, by its series
// through t^19 (the next term is below 2^-55 relative).
[[gnu::always_inline]] inline double Log(double u) {
  const uint64_t bits = std::bit_cast<uint64_t>(u);
  double e = std::bit_cast<double>(kTwoTo52Bits | (bits >> 52)) -
             (0x1p52 + 1023.0);
  double f = std::bit_cast<double>((bits & kMantissaMask) | kOneBits);
  const bool high = f > kSqrt2;
  f = high ? f * 0.5 : f;
  e = high ? e + 1.0 : e;
  const double t = (f - 1.0) / (f + 1.0);
  const double t2 = t * t;
  const double p =
      t2 * (1.0 / 3 +
            t2 * (1.0 / 5 +
                  t2 * (1.0 / 7 +
                        t2 * (1.0 / 9 +
                              t2 * (1.0 / 11 +
                                    t2 * (1.0 / 13 +
                                          t2 * (1.0 / 15 +
                                                t2 * (1.0 / 17 +
                                                      t2 * (1.0 / 19)))))))));
  const double two_t = 2.0 * t;
  return e * kLn2Hi + ((two_t + two_t * p) + e * kLn2Lo);
}

// cos and sin of theta in [0, 2 pi): theta = k pi/2 + r, |r| <= pi/4, by
// Cody–Waite reduction with three parts of pi/2 (so r keeps its relative
// accuracy next to pi/2, pi and 3 pi/2), Taylor polynomials for sin r
// through r^15 and cos r through r^16, and the quadrant's swap and signs
// as bit operations.
[[gnu::always_inline]] inline void SinCos(double theta, double* cos_out,
                                          double* sin_out) {
  const double shifted = theta * kTwoOverPi + kRoundMagic;
  const double k = shifted - kRoundMagic;
  const uint64_t q = std::bit_cast<uint64_t>(shifted) & 3;
  const double r = ((theta - k * kPio2A) - k * kPio2B) - k * kPio2C;
  const double r2 = r * r;
  const double s =
      r + r * r2 *
              (-1.0 / 6 +
               r2 * (1.0 / 120 +
                     r2 * (-1.0 / 5040 +
                           r2 * (1.0 / 362880 +
                                 r2 * (-1.0 / 39916800 +
                                       r2 * (1.0 / 6227020800 +
                                             r2 * (-1.0 / 1307674368000)))))));
  const double c =
      1.0 +
      r2 * (-1.0 / 2 +
            r2 * (1.0 / 24 +
                  r2 * (-1.0 / 720 +
                        r2 * (1.0 / 40320 +
                              r2 * (-1.0 / 3628800 +
                                    r2 * (1.0 / 479001600 +
                                          r2 * (-1.0 / 87178291200 +
                                                r2 * (1.0 /
                                                      20922789888000))))))));
  // Odd quadrants swap sin and cos; cos is negated in quadrants 1 and 2,
  // sin in 2 and 3 (bit 1 of q + 1, or of q, shifted to the sign bit).
  const uint64_t swap = 0 - (q & 1);
  const uint64_t sb = std::bit_cast<uint64_t>(s);
  const uint64_t cb = std::bit_cast<uint64_t>(c);
  const uint64_t cos_bits = ((cb & ~swap) | (sb & swap)) ^ (((q + 1) & 2) << 62);
  const uint64_t sin_bits = ((sb & ~swap) | (cb & swap)) ^ ((q & 2) << 62);
  *cos_out = std::bit_cast<double>(cos_bits);
  *sin_out = std::bit_cast<double>(sin_bits);
}

// The one kernel body, inlined into each target's copy below.
[[gnu::always_inline]] inline void Body(const uint64_t* a, const uint64_t* b,
                                        size_t pairs, double* z0,
                                        double* z1) {
  for (size_t i = 0; i < pairs; ++i) {
    const double u1 = 1.0 - ToUnit(a[i]);
    const double theta = 2.0 * M_PI * ToUnit(b[i]);
    const double radius = std::sqrt(-2.0 * Log(u1));
    double c = 0.0, s = 0.0;
    SinCos(theta, &c, &s);
    z0[i] = radius * c;
    z1[i] = radius * s;
  }
}

// Vectors of 64-bit words, one lane each: a copy steps its lanes in the
// widest its target has (two, four or eight words).
typedef uint64_t Words2 __attribute__((vector_size(16)));
typedef uint64_t Words4 __attribute__((vector_size(32)));
typedef uint64_t Words8 __attribute__((vector_size(64)));

// The Draws stage, kLanes lanes as kLanes / width vectors of type V. The
// state stays in registers across the rows; each row stores all kLanes
// draws, and the next row's store overwrites those past `lanes`.
template <typename V>
[[gnu::always_inline]] inline void DrawBody(LaneStates* states, size_t lanes,
                                            size_t pairs, uint64_t* a,
                                            uint64_t* b) {
  constexpr size_t kWidth = sizeof(V) / sizeof(uint64_t);
  constexpr size_t kVectors = kLanes / kWidth;
  static_assert(kVectors * kWidth == kLanes);
  V s[kVectors][4];
  for (size_t v = 0; v < kVectors; ++v) {
    for (int w = 0; w < 4; ++w) {
      std::memcpy(&s[v][w], &states->s[w][v * kWidth], sizeof(V));
    }
  }
  for (size_t i = 0; i < pairs; ++i) {
    for (size_t v = 0; v < kVectors; ++v) {
      const V x = XoshiroNext(s[v]);
      const V y = XoshiroNext(s[v]);
      std::memcpy(a + i * lanes + v * kWidth, &x, sizeof(V));
      std::memcpy(b + i * lanes + v * kWidth, &y, sizeof(V));
    }
  }
  for (size_t v = 0; v < kVectors; ++v) {
    for (int w = 0; w < 4; ++w) {
      std::memcpy(&states->s[w][v * kWidth], &s[v][w], sizeof(V));
    }
  }
}

// mean + stddev * z lies within the kernel's error budget (2^-46 relative
// to libm, plus a few roundings) of the double Normal(mean, stddev) gives,
// far inside the 2^-40 slack, whether or not the copy's compiler fuses the
// multiply and add. Rounding to float is monotone, so when both ends of
// the slack round to one float, that double does too. A float of +-0 is
// refused: -0 == +0, so the two ends may hide a sign.
[[gnu::always_inline]] inline bool KeepBody(double mean, double stddev,
                                            double z, float* out) {
  const double t = stddev * z;
  const double y = mean + t;
  const double slack = 0x1p-40 * (std::fabs(mean) + std::fabs(t));
  const float lo = static_cast<float>(y - slack);
  const float hi = static_cast<float>(y + slack);
  *out = lo;
  return (lo == hi) & (lo != 0.0f);  // NaN compares unequal
}

// The Check stage: branch-free, so it vectorizes; a refused value is
// written as a NaN, which no kept value is.
[[gnu::always_inline]] inline bool CheckBody(const double* z0,
                                             const double* z1, size_t pairs,
                                             double mean, double stddev,
                                             float* out) {
  constexpr float kRefused = std::numeric_limits<float>::quiet_NaN();
  int all_kept = 1;
  for (size_t i = 0; i < pairs; ++i) {
    float f0 = 0.0f, f1 = 0.0f;
    const int k0 = KeepBody(mean, stddev, z0[i], &f0);
    const int k1 = KeepBody(mean, stddev, z1[i], &f1);
    out[2 * i] = k0 ? f0 : kRefused;
    out[2 * i + 1] = k1 ? f1 : kRefused;
    all_kept &= k0 & k1;
  }
  return all_kept;
}

// Pairs a lane fills per block: the block's draws, variates and floats
// take 5 KiB of the claiming thread's stack at kLanes lanes.
constexpr size_t kRows = 16;

// Pairs [begin, end) of lanes [0, lanes), a block of kRows pairs a lane at
// a time; lane j's floats start at out + 2 * j * kChunkPairs. A block's
// pairs run through the stages lane-minor, and each lane's floats are then
// copied to its own chunk; a pair the check refused is redone by
// ExactPair, from the draws the block still holds.
template <typename V>
[[gnu::always_inline]] inline void RowsBody(LaneStates* states, size_t lanes,
                                            size_t begin, size_t end,
                                            float* out, double mean,
                                            double stddev) {
  uint64_t a[kRows * kLanes], b[kRows * kLanes];
  double z0[kRows * kLanes], z1[kRows * kLanes];
  float f[2 * kRows * kLanes];
  for (size_t p = begin; p < end; p += kRows) {
    const size_t m = std::min(kRows, end - p);
    const size_t n = m * lanes;
    DrawBody<V>(states, lanes, m, a, b);
    Body(a, b, n, z0, z1);
    const bool all_kept = CheckBody(z0, z1, n, mean, stddev, f);
    for (size_t j = 0; j < lanes; ++j) {
      float* o = out + 2 * (j * kChunkPairs + p);
      for (size_t i = 0; i < m; ++i) {
        std::memcpy(o + 2 * i, f + 2 * (i * lanes + j), 2 * sizeof(float));
      }
    }
    if (all_kept) continue;
    for (size_t q = 0; q < n; ++q) {
      if (std::isnan(f[2 * q]) || std::isnan(f[2 * q + 1])) {
        const size_t j = q % lanes, i = q / lanes;
        ExactPair(a[q], b[q], mean, stddev,
                  out + 2 * (j * kChunkPairs + p + i));
      }
    }
  }
}

// The Claim stage: the pairs every lane has, then the rest of the whole
// lanes, with the last lane's state put back where its pairs end.
template <typename V>
[[gnu::always_inline]] inline void ClaimBody(LaneStates* states, size_t lanes,
                                             size_t last_pairs, float* out,
                                             double mean, double stddev) {
  RowsBody<V>(states, lanes, 0, last_pairs, out, mean, stddev);
  if (lanes == 1) return;
  uint64_t last[4];
  for (int w = 0; w < 4; ++w) last[w] = states->s[w][lanes - 1];
  RowsBody<V>(states, lanes - 1, last_pairs, kChunkPairs, out, mean, stddev);
  for (int w = 0; w < 4; ++w) states->s[w][lanes - 1] = last[w];
}

// One copy's four entry points, each an inlined body, under `attrs`, with
// its lanes in vectors of type V.
#define TFMR_NORMAL_KERNEL_COPY(name, V, attrs)                              \
  attrs void name##Draws(LaneStates* states, size_t lanes, size_t pairs,    \
                         uint64_t* a, uint64_t* b) {                        \
    DrawBody<V>(states, lanes, pairs, a, b);                                \
  }                                                                         \
  attrs void name##Kernel(const uint64_t* a, const uint64_t* b,             \
                          size_t pairs, double* z0, double* z1) {           \
    Body(a, b, pairs, z0, z1);                                              \
  }                                                                         \
  attrs bool name##Check(const double* z0, const double* z1, size_t pairs,  \
                         double mean, double stddev, float* out) {          \
    return CheckBody(z0, z1, pairs, mean, stddev, out);                     \
  }                                                                         \
  attrs void name##Claim(LaneStates* states, size_t lanes, size_t last_pairs, \
                         float* out, double mean, double stddev) {          \
    ClaimBody<V>(states, lanes, last_pairs, out, mean, stddev);             \
  }

TFMR_NORMAL_KERNEL_COPY(Baseline, Words2, )

#if defined(__x86_64__) || defined(__i386__)
TFMR_NORMAL_KERNEL_COPY(Avx2Fma, Words4, [[gnu::target("avx2,fma")]])
TFMR_NORMAL_KERNEL_COPY(Avx512Fma, Words8, [[gnu::target("avx512f,fma")]])

bool HasAvx2Fma() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

bool HasAvx512Fma() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("fma");
}
#endif

#undef TFMR_NORMAL_KERNEL_COPY

}  // namespace

std::span<const Copy> Copies() {
#if defined(__x86_64__) || defined(__i386__)
  static const std::array<Copy, 3> copies = {
      Copy{"baseline", &BaselineDraws, &BaselineKernel, &BaselineCheck,
           &BaselineClaim, true},
      Copy{"avx2,fma", &Avx2FmaDraws, &Avx2FmaKernel, &Avx2FmaCheck,
           &Avx2FmaClaim, HasAvx2Fma()},
      Copy{"avx512f,fma", &Avx512FmaDraws, &Avx512FmaKernel, &Avx512FmaCheck,
           &Avx512FmaClaim, HasAvx512Fma()}};
#else
  static const std::array<Copy, 1> copies = {
      Copy{"baseline", &BaselineDraws, &BaselineKernel, &BaselineCheck,
           &BaselineClaim, true}};
#endif
  return copies;
}

const Copy& InUse() {
  static const Copy& in_use = []() -> const Copy& {
    const Copy* pick = nullptr;
    for (const Copy& copy : Copies()) {
      if (copy.runnable) pick = &copy;
    }
    return *pick;
  }();
  return in_use;
}

Kernel Best() { return InUse().kernel; }

bool KeepFloat(double mean, double stddev, double z, float* out) {
  return KeepBody(mean, stddev, z, out);
}

}  // namespace llm::util::normal_kernel
