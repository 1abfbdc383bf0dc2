// Internal to Rng::FillNormal (rng.cc); not part of the public util API.
//
// A vectorizable Box–Muller kernel for blocks of raw xoshiro pairs, the
// rounding check that decides when one of its variates may stand for the
// libm one, and the jump that takes the generator to a chunk's start. The
// kernel is accurate to about 2^-50 relative, not bit-exact; FillNormal
// keeps a kernel value only when the check proves it rounds to the same
// float that `static_cast<float>(Normal(mean, stddev))` gives, and
// recomputes the pair with libm otherwise.
#ifndef TFMR_UTIL_NORMAL_KERNEL_H_
#define TFMR_UTIL_NORMAL_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace llm::util::normal_kernel {

/// For i < pairs, writes the Box–Muller pair of the raw draws a[i], b[i]
/// (u1 = 1 - (a >> 11) * 2^-53, u2 = (b >> 11) * 2^-53, as in Normal())
/// to z0[i] = r cos(2 pi u2) and z1[i] = r sin(2 pi u2),
/// r = sqrt(-2 log u1). Each value is within 2^-46 of libm's, relative,
/// and exactly zero where libm's is.
using Kernel = void (*)(const uint64_t* a, const uint64_t* b, size_t pairs,
                        double* z0, double* z1);

/// One compiled copy of the kernel.
struct Copy {
  const char* name;
  Kernel kernel;
  bool runnable;  // this CPU has the instructions the copy needs
};

/// Every compiled copy, baseline first.
std::span<const Copy> Copies();

/// The copy FillNormal uses: the last runnable one in Copies(), picked once.
Kernel Best();

/// Defined in rng.cc, in default-target code. For a kernel variate z,
/// writes a float to *out and returns whether it is the float
/// static_cast<float>(Normal(mean, stddev)) gives for libm's variate: true
/// when every double within 2^-40 * (|mean| + |stddev * z|) of
/// mean + stddev * z rounds to that one float, unless it is +-0 or NaN.
bool KeepFloat(double mean, double stddev, double z, float* out);

/// Defined in rng.cc. Moves the xoshiro256 state s[0, 4) to where
/// Rng::kFillNormalChunk NextU64() calls would leave it, in one jump of 256
/// state updates: how a parallel FillNormal reaches each whole chunk's
/// start.
void JumpChunk(uint64_t* s);

}  // namespace llm::util::normal_kernel

#endif  // TFMR_UTIL_NORMAL_KERNEL_H_
