// Internal to Rng::FillNormal (rng.cc); not part of the public util API.
//
// The per-pair work of a chunked normal fill, and the jump that takes the
// generator to a chunk's start. A claim advances up to kLanes chunk
// streams side by side, runs a vectorizable Box–Muller kernel over their
// raw xoshiro pairs, and keeps a kernel value only when a rounding check
// proves it rounds to the float `static_cast<float>(Normal(mean, stddev))`
// gives; the pair is recomputed with libm otherwise. The kernel is
// accurate to about 2^-50 relative, not bit-exact.
#ifndef TFMR_UTIL_NORMAL_KERNEL_H_
#define TFMR_UTIL_NORMAL_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "util/rng.h"

namespace llm::util::normal_kernel {

/// Chunk streams a claim advances side by side.
inline constexpr size_t kLanes = 8;

/// Pairs in a whole chunk: Rng::kFillNormalChunk values.
inline constexpr size_t kChunkPairs = Rng::kFillNormalChunk / 2;

/// One xoshiro256** step on the state s[0, 4); returns the draw. Word is
/// uint64_t for Rng::NextU64, or a vector of them for the lanes: the one
/// definition of the step. The multiplies by 5 and 9 are written as shifts
/// and adds, which every target has for vectors of 64-bit words.
template <typename Word>
[[gnu::always_inline]] inline Word XoshiroNext(Word* s) {
  const Word times5 = (s[1] << 2) + s[1];
  const Word rotated = (times5 << 7) | (times5 >> 57);  // rotl 7
  const Word result = (rotated << 3) + rotated;          // times 9
  const Word t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = (s[3] << 45) | (s[3] >> 19);  // rotl 45
  return result;
}

/// The xoshiro256 states of kLanes streams, word-major: lane j's state is
/// s[0][j] .. s[3][j].
struct LaneStates {
  uint64_t s[4][kLanes] = {};
};

/// Steps lanes [0, lanes) `pairs` times two: lane j's draws 2i and 2i + 1
/// land in a[i * lanes + j] and b[i * lanes + j], and its state ends past
/// them. Lanes from `lanes` on step too, and are left undefined. a and b
/// need room for (pairs - 1) * lanes + kLanes values: each step stores a
/// whole row of kLanes, which the next row overwrites past `lanes`.
using Draws = void (*)(LaneStates* states, size_t lanes, size_t pairs,
                       uint64_t* a, uint64_t* b);

/// For i < pairs, writes the Box–Muller pair of the raw draws a[i], b[i]
/// (u1 = 1 - (a >> 11) * 2^-53, u2 = (b >> 11) * 2^-53, as in Normal())
/// to z0[i] = r cos(2 pi u2) and z1[i] = r sin(2 pi u2),
/// r = sqrt(-2 log u1). Each value is within 2^-46 of libm's, relative,
/// and exactly zero where libm's is.
using Kernel = void (*)(const uint64_t* a, const uint64_t* b, size_t pairs,
                        double* z0, double* z1);

/// For i < pairs, writes to out[2i] and out[2i + 1] the float
/// `static_cast<float>(Normal(mean, stddev))` gives for libm's variates of
/// kernel values z0[i] and z1[i], or a NaN where the check cannot prove
/// it (see KeepFloat). Returns whether no value is a NaN.
using Check = bool (*)(const double* z0, const double* z1, size_t pairs,
                       double mean, double stddev, float* out);

/// A claim of `lanes` (1 to kLanes) consecutive chunks from their start
/// states: lane j fills out[2 * j * kChunkPairs, ...) with kChunkPairs
/// pairs, except the last lane, which fills `last_pairs` (at most
/// kChunkPairs). Writes exactly the floats of successive
/// `static_cast<float>(Normal(mean, stddev))` calls from each lane's start
/// (the draws, then Kernel, then Check, with ExactPair for a NaN), and
/// leaves each lane's state past its pairs.
using Claim = void (*)(LaneStates* states, size_t lanes, size_t last_pairs,
                       float* out, double mean, double stddev);

/// One compiled copy of the per-pair work: the same body, built for one
/// target.
struct Copy {
  const char* name;
  Draws draws;
  Kernel kernel;
  Check check;
  Claim claim;
  bool runnable;  // this CPU has the instructions the copy needs
};

/// Every compiled copy, baseline first.
std::span<const Copy> Copies();

/// The copy FillNormal uses: the last runnable one in Copies(), picked once.
const Copy& InUse();

/// InUse().kernel.
Kernel Best();

/// The baseline copy's check on one kernel variate z: writes a float to
/// *out and returns whether it is the float
/// static_cast<float>(Normal(mean, stddev)) gives for libm's variate: true
/// when every double within 2^-40 * (|mean| + |stddev * z|) of
/// mean + stddev * z rounds to that one float, unless it is +-0 or NaN.
/// FillNormal runs each copy's Check; this is the tests' reference.
bool KeepFloat(double mean, double stddev, double z, float* out);

/// Defined in rng.cc, in default-target code: writes
/// static_cast<float>(Normal(mean, stddev)) for both variates of the pair
/// drawn as a, b to out[0] and out[1], through the libm Box–Muller that
/// Normal() uses, and returns the second variate.
double ExactPair(uint64_t a, uint64_t b, double mean, double stddev,
                 float* out);

/// Defined in rng.cc. Moves the xoshiro256 state s[0, 4) to where
/// Rng::kFillNormalChunk NextU64() calls would leave it, in one jump of 256
/// state updates: how a FillNormal reaches each whole chunk's start.
void JumpChunk(uint64_t* s);

}  // namespace llm::util::normal_kernel

#endif  // TFMR_UTIL_NORMAL_KERNEL_H_
