// The Box–Muller kernel behind Rng::FillNormal (see normal_kernel.h).
//
// Everything is plain arithmetic GCC can vectorize: no libm call, no
// int64 <-> double conversion, and no branch but two selects. This is the
// only file built with -fno-math-errno (so std::sqrt becomes one
// instruction) and -fno-trapping-math (so the selects become blends); the
// kernel is built three times from one body, for the baseline target, for
// AVX2 with FMA and for AVX-512 with FMA, and Best() picks once by CPUID.
#include "util/normal_kernel.h"

#include <array>
#include <bit>
#include <cmath>

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

void Baseline(const uint64_t* a, const uint64_t* b, size_t pairs, double* z0,
              double* z1) {
  Body(a, b, pairs, z0, z1);
}

#if defined(__x86_64__) || defined(__i386__)
[[gnu::target("avx2,fma")]] void Avx2Fma(const uint64_t* a,
                                         const uint64_t* b, size_t pairs,
                                         double* z0, double* z1) {
  Body(a, b, pairs, z0, z1);
}

[[gnu::target("avx512f,fma")]] void Avx512Fma(const uint64_t* a,
                                              const uint64_t* b, size_t pairs,
                                              double* z0, double* z1) {
  Body(a, b, pairs, z0, z1);
}

bool HasAvx2Fma() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

bool HasAvx512Fma() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("fma");
}
#endif

}  // namespace

std::span<const Copy> Copies() {
#if defined(__x86_64__) || defined(__i386__)
  static const std::array<Copy, 3> copies = {
      Copy{"baseline", &Baseline, true},
      Copy{"avx2,fma", &Avx2Fma, HasAvx2Fma()},
      Copy{"avx512f,fma", &Avx512Fma, HasAvx512Fma()}};
#else
  static const std::array<Copy, 1> copies = {
      Copy{"baseline", &Baseline, true}};
#endif
  return copies;
}

Kernel Best() {
  static const Kernel best = [] {
    Kernel k = nullptr;
    for (const Copy& copy : Copies()) {
      if (copy.runnable) k = copy.kernel;
    }
    return k;
  }();
  return best;
}

}  // namespace llm::util::normal_kernel
