// Tests for the utility substrate: Status/StatusOr, Rng, Crc32, Table,
// linalg.
#include <gtest/gtest.h>

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "util/crc32.h"
#include "util/fault.h"
#include "util/linalg.h"
#include "util/normal_kernel.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/table.h"

namespace llm::util {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad thing");
}

TEST(StatusTest, EveryCodeHasAName) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIOError), "IOError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnimplemented), "Unimplemented");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(v.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::NotFound("missing"));
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

Status FailsThrough() {
  LLM_RETURN_IF_ERROR(Status::Internal("inner"));
  return Status::OK();
}

TEST(StatusMacros, ReturnIfErrorPropagates) {
  Status s = FailsThrough();
  EXPECT_EQ(s.code(), StatusCode::kInternal);
}

StatusOr<int> MakeValue(bool ok) {
  if (!ok) return Status::InvalidArgument("no");
  return 7;
}

Status UsesAssign(bool ok, int* out) {
  LLM_ASSIGN_OR_RETURN(int v, MakeValue(ok));
  *out = v;
  return Status::OK();
}

TEST(StatusMacros, AssignOrReturn) {
  int out = 0;
  EXPECT_TRUE(UsesAssign(true, &out).ok());
  EXPECT_EQ(out, 7);
  EXPECT_FALSE(UsesAssign(false, &out).ok());
}

// Regression: LLM_ASSIGN_OR_RETURN used to be hazardous around if/else —
// its internal `if` could capture a dangling `else`, and two expansions on
// one line collided on the temporary's name. These functions exercise the
// shapes that used to be pitfalls; compiling them is half the test.
Status AssignInBothBranches(bool which, bool ok, int* out) {
  if (which) {
    LLM_ASSIGN_OR_RETURN(int v, MakeValue(ok));
    *out = v + 1;
  } else {
    LLM_ASSIGN_OR_RETURN(int v, MakeValue(ok));
    *out = v + 2;
  }
  return Status::OK();
}

// clang-format off
Status TwoAssignsOnOneLine(int* out) {
  LLM_ASSIGN_OR_RETURN(int a, MakeValue(true)); LLM_ASSIGN_OR_RETURN(int b, MakeValue(true));
  *out = a + b;
  return Status::OK();
}
// clang-format on

Status ReturnIfErrorUnbracedIfElse(bool which) {
  // LLM_RETURN_IF_ERROR is a single statement (do/while), so it is legal
  // as an unbraced if/else body and must not swallow the else.
  if (which)
    LLM_RETURN_IF_ERROR(Status::Internal("left"));
  else
    LLM_RETURN_IF_ERROR(Status::NotFound("right"));
  return Status::OK();
}

TEST(StatusMacros, AssignOrReturnInsideIfElse) {
  int out = 0;
  EXPECT_TRUE(AssignInBothBranches(true, true, &out).ok());
  EXPECT_EQ(out, 8);
  EXPECT_TRUE(AssignInBothBranches(false, true, &out).ok());
  EXPECT_EQ(out, 9);
  EXPECT_EQ(AssignInBothBranches(true, false, &out).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(AssignInBothBranches(false, false, &out).code(),
            StatusCode::kInvalidArgument);
}

TEST(StatusMacros, TwoAssignsOnOneLineDoNotCollide) {
  int out = 0;
  EXPECT_TRUE(TwoAssignsOnOneLine(&out).ok());
  EXPECT_EQ(out, 14);
}

TEST(StatusMacros, ReturnIfErrorKeepsIfElsePairing) {
  EXPECT_EQ(ReturnIfErrorUnbracedIfElse(true).code(), StatusCode::kInternal);
  EXPECT_EQ(ReturnIfErrorUnbracedIfElse(false).code(),
            StatusCode::kNotFound);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  EXPECT_NE(a.NextU64(), b.NextU64());
}

TEST(RngTest, UniformInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeUniformly) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.UniformInt(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / 10, 500);  // ~5 sigma slack
  }
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(17);
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(3);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) ++counts[rng.Categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.25);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(4);
  std::vector<int> v = {1, 2, 3, 4, 5};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// Libm Box-Muller on two raw draws, written out as Rng's own helper does.
void LibmPair(uint64_t a, uint64_t b, double* z0, double* z1) {
  const double u1 = 1.0 - static_cast<double>(a >> 11) * 0x1.0p-53;
  const double u2 = static_cast<double>(b >> 11) * 0x1.0p-53;
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  *z0 = r * std::cos(theta);
  *z1 = r * std::sin(theta);
}

// Worst |z_fast - z_libm| / |z_libm| over one copy's run on a, b; counts
// values where exactly one of the two is zero in *zero_mismatches.
double WorstRelativeError(normal_kernel::Kernel kernel,
                          const std::vector<uint64_t>& a,
                          const std::vector<uint64_t>& b,
                          size_t* zero_mismatches) {
  const size_t n = a.size();
  std::vector<double> fast0(n), fast1(n);
  kernel(a.data(), b.data(), n, fast0.data(), fast1.data());
  double worst = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double libm[2];
    LibmPair(a[i], b[i], &libm[0], &libm[1]);
    for (const auto& [fast, want] : {std::pair{fast0[i], libm[0]},
                                    std::pair{fast1[i], libm[1]}}) {
      if ((fast == 0.0) != (want == 0.0)) {
        ++*zero_mismatches;
      } else if (want != 0.0) {
        worst = std::max(worst, std::fabs(fast - want) / std::fabs(want));
      }
    }
  }
  return worst;
}

// Every kernel copy this CPU can run, called directly, against libm on the
// same draws: 2^22 random pairs, then the edges. For u1 = 1 - (a >> 11)
// 2^-53 those are u1 = 1 (a zero variate) and the next value down, u1 = 1/2
// and the next value up, the smallest u1, and u1 around sqrt(1/2), where
// the log's exponent split switches; for u2 = (b >> 11) 2^-53 both ends
// and theta next to pi/2, pi and 3 pi/2.
TEST(NormalKernelTest, EveryCopyTracksLibm) {
  const uint64_t mid = static_cast<uint64_t>((1.0 - std::sqrt(0.5)) * 0x1p53);
  std::vector<uint64_t> edge_a = {0, 1, (uint64_t{1} << 52) - 1,
                                  uint64_t{1} << 52, (uint64_t{1} << 53) - 1};
  for (uint64_t m = mid - 3; m <= mid + 3; ++m) edge_a.push_back(m);
  std::vector<uint64_t> edge_b = {0, (uint64_t{1} << 53) - 1};
  for (uint64_t m : {uint64_t{1} << 51, uint64_t{1} << 52,
                     uint64_t{3} << 51}) {
    for (uint64_t d : {m - 1, m, m + 1}) edge_b.push_back(d);
  }
  std::vector<uint64_t> a, b;
  for (uint64_t ma : edge_a) {
    for (uint64_t mb : edge_b) {
      a.push_back(ma << 11);
      b.push_back(mb << 11 | 0x7ff);  // the low 11 bits are never used
    }
  }
  constexpr size_t kRandomPairs = size_t{1} << 22;
  constexpr size_t kBatch = size_t{1} << 16;
  Rng rng(2024);
  std::string ran;
  for (const normal_kernel::Copy& copy : normal_kernel::Copies()) {
    if (!copy.runnable) continue;
    SCOPED_TRACE(copy.name);
    size_t zero_mismatches = 0;
    double worst = WorstRelativeError(copy.kernel, a, b, &zero_mismatches);
    Rng draws = rng;
    std::vector<uint64_t> ra(kBatch), rb(kBatch);
    for (size_t done = 0; done < kRandomPairs; done += kBatch) {
      for (size_t i = 0; i < kBatch; ++i) {
        ra[i] = draws.NextU64();
        rb[i] = draws.NextU64();
      }
      worst = std::max(worst, WorstRelativeError(copy.kernel, ra, rb,
                                                 &zero_mismatches));
    }
    EXPECT_LE(worst, 0x1p-46);
    EXPECT_EQ(zero_mismatches, 0u);
    char line[96];
    std::snprintf(line, sizeof(line), " %s (worst 2^%.2f)", copy.name,
                  std::log2(worst));
    ran += line;
  }
  std::printf("normal kernel copies run:%s over %zu random and %zu edge "
              "pairs\n",
              ran.c_str(), kRandomPairs, a.size());
}

// The check FillNormal keeps a kernel value by, on values built to sit on
// either side of it.
TEST(NormalKernelTest, KeepFloatKeepsOnlyWhatRoundsOneWay) {
  const auto kept = [](double mean, double stddev, double z) {
    float f = 0.0f;
    return normal_kernel::KeepFloat(mean, stddev, z, &f);
  };
  // 1 + 2^-24 is the midpoint of 1.0f and the next float up; one double
  // ULP either side of it, the slack spans both floats.
  for (double sign : {1.0, -1.0}) {
    const double midpoint = sign * (1.0 + 0x1p-24);
    for (double y : {std::nextafter(midpoint, 0.0),
                     std::nextafter(midpoint, 2.0 * midpoint)}) {
      EXPECT_FALSE(kept(y, 1.0, 0.0)) << y;
      EXPECT_FALSE(kept(0.0, 1.0, y)) << y;
      EXPECT_FALSE(kept(0.5 * y, 0.25, 2.0 * y)) << y;
    }
  }
  // A y equal to a float is kept as that float, and so is one far from a
  // float midpoint (0.01).
  for (const auto& [mean, stddev, z, want] :
       {std::tuple{0.0, 1.0, 1.5, 1.5f}, std::tuple{0.25, 2.0, 0.625, 1.5f},
        std::tuple{-0.75, 2.5, 0.0, -0.75f},
        std::tuple{0.0, 0.02, 0.5, static_cast<float>(0.01)},
        std::tuple{0.0, 1.0, 0x1p-140, 0x1p-140f}}) {
    float f = 0.0f;
    EXPECT_TRUE(normal_kernel::KeepFloat(mean, stddev, z, &f))
        << mean << " + " << stddev << " * " << z;
    EXPECT_EQ(f, want);
  }
  // Nothing that rounds to +-0 is kept, and no NaN.
  EXPECT_FALSE(kept(0.0, 1.0, 0.0));
  EXPECT_FALSE(kept(0.0, 1.0, -0.0));
  EXPECT_FALSE(kept(1.0, 1.0, -1.0));
  EXPECT_FALSE(kept(0.0, 1.0, 1e-60));
  EXPECT_FALSE(kept(0.0, 1.0, -1e-60));
  EXPECT_FALSE(kept(0.0, 1.0, std::nan("")));
  EXPECT_FALSE(kept(std::nan(""), 1.0, 0.5));
}

// Lane j starts where Rng(seed + j) does; *serial gets those generators.
normal_kernel::LaneStates LaneStarts(uint64_t seed, size_t lanes,
                                     std::vector<Rng>* serial) {
  normal_kernel::LaneStates states;
  serial->clear();
  for (size_t j = 0; j < lanes; ++j) {
    serial->emplace_back(seed + j);
    const RngState st = serial->back().SaveState();
    for (int w = 0; w < 4; ++w) states.s[w][j] = st.s[w];
  }
  return states;
}

// Every copy's lane draws, for 1 to kLanes lanes, are the draws of that
// many serial NextU64() streams, draw for draw, and leave each lane's state
// where its stream ends; two calls carry the state across.
TEST(NormalKernelTest, LaneDrawsEqualSerialStreams) {
  constexpr size_t kPairs = 100, kFirstCall = 37;
  for (const normal_kernel::Copy& copy : normal_kernel::Copies()) {
    if (!copy.runnable) continue;
    SCOPED_TRACE(copy.name);
    for (size_t lanes = 1; lanes <= normal_kernel::kLanes; ++lanes) {
      SCOPED_TRACE(::testing::Message() << "lanes=" << lanes);
      std::vector<Rng> serial;
      normal_kernel::LaneStates states = LaneStarts(50 * lanes, lanes, &serial);
      std::vector<uint64_t> a(kPairs * lanes + normal_kernel::kLanes);
      std::vector<uint64_t> b(a.size());
      copy.draws(&states, lanes, kFirstCall, a.data(), b.data());
      copy.draws(&states, lanes, kPairs - kFirstCall,
                 a.data() + kFirstCall * lanes, b.data() + kFirstCall * lanes);
      size_t differ = 0;
      for (size_t i = 0; i < kPairs; ++i) {
        for (size_t j = 0; j < lanes; ++j) {
          differ += a[i * lanes + j] != serial[j].NextU64();
          differ += b[i * lanes + j] != serial[j].NextU64();
        }
      }
      EXPECT_EQ(differ, 0u);
      for (size_t j = 0; j < lanes; ++j) {
        const RngState want = serial[j].SaveState();
        for (int w = 0; w < 4; ++w) EXPECT_EQ(states.s[w][j], want.s[w]);
      }
    }
  }
}

// Every copy's check, on its own lane draws and kernel: each value it keeps
// is the float Normal(mean, stddev) gives on that lane's stream, over 2^22
// pairs at three (mean, stddev); and some values are refused.
TEST(NormalKernelTest, EveryCopysCheckKeepsOnlyNormalsFloat) {
  constexpr size_t kLanes = normal_kernel::kLanes;
  constexpr size_t kRows = 512;  // pairs a lane per batch
  constexpr size_t kBatch = kRows * kLanes;
  constexpr size_t kBatches = (size_t{1} << 22) / kBatch;
  const std::pair<double, double> settings[] = {
      {0.0, 1.0}, {-0.75, 2.5}, {0.0, 0.02}};
  for (const normal_kernel::Copy& copy : normal_kernel::Copies()) {
    if (!copy.runnable) continue;
    SCOPED_TRACE(copy.name);
    std::vector<Rng> serial;
    normal_kernel::LaneStates states = LaneStarts(9000, kLanes, &serial);
    std::vector<uint64_t> a(kBatch + kLanes), b(kBatch + kLanes);
    std::vector<double> z0(kBatch), z1(kBatch);
    std::vector<float> f(2 * kBatch);
    size_t kept = 0, refused = 0, wrong = 0;
    for (size_t batch = 0; batch < kBatches; ++batch) {
      const auto [mean, stddev] = settings[batch % 3];
      copy.draws(&states, kLanes, kRows, a.data(), b.data());
      copy.kernel(a.data(), b.data(), kBatch, z0.data(), z1.data());
      const bool all_kept =
          copy.check(z0.data(), z1.data(), kBatch, mean, stddev, f.data());
      size_t batch_refused = 0;
      for (size_t i = 0; i < kRows; ++i) {
        for (size_t j = 0; j < kLanes; ++j) {
          for (size_t v = 0; v < 2; ++v) {
            const float want = static_cast<float>(serial[j].Normal(mean, stddev));
            const float got = f[2 * (i * kLanes + j) + v];
            if (std::isnan(got)) {
              ++batch_refused;
            } else {
              ++kept;
              wrong += std::memcmp(&got, &want, sizeof(float)) != 0;
            }
          }
        }
      }
      EXPECT_EQ(all_kept, batch_refused == 0);
      refused += batch_refused;
    }
    EXPECT_EQ(wrong, 0u);
    EXPECT_GE(refused, 1u);
    EXPECT_GT(kept, 1000 * refused);
  }
}

// KeepFloatKeepsOnlyWhatRoundsOneWay's cases through every copy's check,
// and FillNormalRoundsFloatMidpointsLikeNormal's through every copy's
// claim of one lane: a first value exactly on a float midpoint, which the
// check must refuse and ExactPair must round as Normal() does.
TEST(NormalKernelTest, EveryCopyRefusesEdgesAndMidpoints) {
  for (const normal_kernel::Copy& copy : normal_kernel::Copies()) {
    if (!copy.runnable) continue;
    SCOPED_TRACE(copy.name);
    const auto checked = [&](double mean, double stddev, double z) {
      const double z0[1] = {z}, z1[1] = {1.5};
      float f[2] = {};
      const bool all_kept = copy.check(z0, z1, 1, mean, stddev, f);
      EXPECT_EQ(all_kept, !std::isnan(f[0]) && !std::isnan(f[1]));
      return f[0];
    };
    for (double sign : {1.0, -1.0}) {
      const double midpoint = sign * (1.0 + 0x1p-24);
      for (double y : {std::nextafter(midpoint, 0.0),
                       std::nextafter(midpoint, 2.0 * midpoint)}) {
        EXPECT_TRUE(std::isnan(checked(y, 1.0, 0.0))) << y;
        EXPECT_TRUE(std::isnan(checked(0.0, 1.0, y))) << y;
        EXPECT_TRUE(std::isnan(checked(0.5 * y, 0.25, 2.0 * y))) << y;
      }
    }
    for (const auto& [mean, stddev, z, want] :
         {std::tuple{0.0, 1.0, 1.5, 1.5f}, std::tuple{0.25, 2.0, 0.625, 1.5f},
          std::tuple{-0.75, 2.5, 0.0, -0.75f},
          std::tuple{0.0, 0.02, 0.5, static_cast<float>(0.01)},
          std::tuple{0.0, 1.0, 0x1p-140, 0x1p-140f}}) {
      EXPECT_EQ(checked(mean, stddev, z), want)
          << mean << " + " << stddev << " * " << z;
    }
    for (const auto& [mean, z] :
         {std::pair{0.0, 0.0}, std::pair{0.0, -0.0}, std::pair{1.0, -1.0},
          std::pair{0.0, 1e-60}, std::pair{0.0, -1e-60},
          std::pair{0.0, std::nan("")}, std::pair{std::nan(""), 0.5}}) {
      EXPECT_TRUE(std::isnan(checked(mean, 1.0, z))) << mean << " " << z;
    }

    constexpr double kStddev = 0.7;
    constexpr size_t kPairs = 32;
    const double midpoint = 0x1p-10 * (1.0 + 0x1p-24);  // ties to 0x1p-10f
    int tried = 0;
    for (uint64_t seed = 1; tried < 8 && seed < 10000; ++seed) {
      Rng probe(seed);
      const double t = kStddev * probe.Normal();
      if (std::fabs(t) < 1.0 || std::fabs(t) >= 2.0) continue;
      const double mean = midpoint - t;
      SCOPED_TRACE(::testing::Message() << "seed=" << seed);
      std::vector<Rng> serial;
      normal_kernel::LaneStates states = LaneStarts(seed, 1, &serial);
      std::vector<float> got(2 * kPairs), want(2 * kPairs);
      copy.claim(&states, 1, kPairs, got.data(), mean, kStddev);
      for (float& w : want) w = static_cast<float>(serial[0].Normal(mean, kStddev));
      EXPECT_EQ(want[0], 0x1p-10f);
      EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
                0);
      const RngState end = serial[0].SaveState();
      for (int w = 0; w < 4; ++w) EXPECT_EQ(states.s[w][0], end.s[w]);
      ++tried;
    }
    EXPECT_EQ(tried, 8);
  }
}

// Values of the `pairs` pairs a fill from `rng` would draw that the check
// does not keep, with the kernel FillNormal uses.
size_t CountNotKept(Rng rng, size_t pairs, double mean, double stddev) {
  std::vector<uint64_t> a(pairs), b(pairs);
  for (size_t i = 0; i < pairs; ++i) {
    a[i] = rng.NextU64();
    b[i] = rng.NextU64();
  }
  std::vector<double> z0(pairs), z1(pairs);
  normal_kernel::Best()(a.data(), b.data(), pairs, z0.data(), z1.data());
  size_t not_kept = 0;
  for (size_t i = 0; i < pairs; ++i) {
    float f = 0.0f;
    not_kept += !normal_kernel::KeepFloat(mean, stddev, z0[i], &f);
    not_kept += !normal_kernel::KeepFloat(mean, stddev, z1[i], &f);
  }
  return not_kept;
}

// The generators a and b are in the same state: every SaveState() field,
// down to the dead cached_normal a checkpoint still saves, and the next
// draw.
void ExpectSameGenerator(Rng* a, Rng* b) {
  const RngState sa = a->SaveState();
  const RngState sb = b->SaveState();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(sa.s[i], sb.s[i]);
  EXPECT_EQ(sa.have_cached_normal, sb.have_cached_normal);
  EXPECT_EQ(
      std::memcmp(&sa.cached_normal, &sb.cached_normal, sizeof(double)), 0);
  EXPECT_EQ(a->NextU64(), b->NextU64());
}

// FillNormal against the sequential loop it replaces, from the same state:
// the same bytes out (and none written past n), and the same generator
// after. Returns how many of the fill's values the check did not keep.
size_t ExpectFillMatchesLoop(size_t n, bool cached, double mean,
                             double stddev) {
  SCOPED_TRACE(::testing::Message() << "n=" << n << " cached=" << cached
                                    << " mean=" << mean
                                    << " stddev=" << stddev);
  Rng fill(1000 + n), loop(1000 + n);
  // One draw leaves a variate cached; two leave the cache empty but its
  // value stale, which a fill that draws no pair must keep.
  for (int i = 0; i < (cached ? 1 : 2); ++i) {
    fill.Normal();
    loop.Normal();
  }
  const size_t not_kept =
      CountNotKept(fill, (n - (cached && n > 0)) / 2, mean, stddev);
  std::vector<float> got(n + 1, -7.0f), want(n + 1, -7.0f);
  fill.FillNormal(got.data(), n, mean, stddev);
  for (size_t i = 0; i < n; ++i) {
    want[i] = static_cast<float>(loop.Normal(mean, stddev));
  }
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
            0);
  ExpectSameGenerator(&fill, &loop);
  return not_kept;
}

// The jump a parallel fill takes to each whole chunk's start lands where
// kFillNormalChunk draws do, from any state.
TEST(RngTest, ChunkJumpEqualsChunkOfDraws) {
  for (uint64_t seed = 0; seed < 64; ++seed) {
    SCOPED_TRACE(seed);
    Rng walk(seed);
    RngState jumped = walk.SaveState();
    normal_kernel::JumpChunk(jumped.s);
    for (size_t i = 0; i < Rng::kFillNormalChunk; ++i) walk.NextU64();
    const RngState want = walk.SaveState();
    for (int i = 0; i < 4; ++i) EXPECT_EQ(jumped.s[i], want.s[i]);
  }
}

TEST(RngTest, FillNormalMatchesSequentialLoop) {
  constexpr size_t kChunk = Rng::kFillNormalChunk;
  // Fills of more than one claim (8 chunks) run on several threads, given
  // more than one allowed CPU. 2 * kChunk is exactly two whole chunks only
  // without a cached variate. 3 * kChunk + 3 ends in a one-pair chunk,
  // whose filler's state the generator ends with. kChunk / 2 + 1,
  // 6 * kChunk + 1001 and 8 * kChunk + 7 are 1, 7 and 9 chunks ending in a
  // partial one: a claim of one lane, one of seven, and a full claim
  // followed by a one-lane claim, the smallest fill that spawns a thread.
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, kChunk - 1,
                   kChunk, kChunk + 1, 2 * kChunk, 3 * kChunk + 1,
                   3 * kChunk + 3, size_t{1} << 20, (size_t{1} << 20) + 1,
                   kChunk / 2 + 1, 6 * kChunk + 1001, 8 * kChunk + 7}) {
    for (bool cached : {false, true}) {
      ExpectFillMatchesLoop(n, cached, 0.0, 1.0);
      const size_t not_kept = ExpectFillMatchesLoop(n, cached, -0.75, 2.5);
      // The million-value fill has values the check refuses, so the match
      // above covers the libm fallback too.
      if (n == size_t{1} << 20) {
        EXPECT_GE(not_kept, 1u) << "cached=" << cached;
      }
    }
  }
}

// A value exactly on a float midpoint is one the check must refuse, and
// the fallback must then round mean + stddev * z as Normal() does, in two
// steps. Fused into one FMA, the sum would carry the rounding error of
// stddev * z and round off the midpoint: up, for each draw picked here.
TEST(RngTest, FillNormalRoundsFloatMidpointsLikeNormal) {
  constexpr double kStddev = 0.7;
  constexpr size_t kN = 64;
  const double midpoint = 0x1p-10 * (1.0 + 0x1p-24);  // ties to 0x1p-10f
  int tried = 0;
  for (uint64_t seed = 1; tried < 8 && seed < 10000; ++seed) {
    Rng probe(seed);
    const double z = probe.Normal();  // the first value of a fill
    const double t = kStddev * z;
    if (std::fabs(t) < 1.0 || std::fabs(t) >= 2.0 ||
        std::fma(kStddev, z, -t) <= 0.0) {
      continue;
    }
    // Both on the 2^-52 grid and under 2 in size, so both sums are exact.
    const double mean = midpoint - t;
    ASSERT_EQ(mean + t, midpoint);
    ASSERT_NE(static_cast<float>(std::fma(kStddev, z, mean)),
              static_cast<float>(midpoint));
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    Rng fill(seed), loop(seed);
    std::vector<float> got(kN), want(kN);
    fill.FillNormal(got.data(), kN, mean, kStddev);
    for (size_t i = 0; i < kN; ++i) {
      want[i] = static_cast<float>(loop.Normal(mean, kStddev));
    }
    EXPECT_EQ(want[0], 0x1p-10f);
    EXPECT_EQ(std::memcmp(got.data(), want.data(), kN * sizeof(float)), 0);
    ++tried;
  }
  EXPECT_EQ(tried, 8);
}

// Runs `body` with the calling thread's affinity narrowed to its first
// `count` allowed CPUs (all of them if it has fewer), where a fill's team
// is at most `count` threads, and restores it.
template <typename Body>
void OnCpus(int count, Body body) {
  cpu_set_t all, some;
  ASSERT_EQ(sched_getaffinity(0, sizeof(all), &all), 0);
  CPU_ZERO(&some);
  for (int cpu = 0, taken = 0; cpu < CPU_SETSIZE && taken < count; ++cpu) {
    if (CPU_ISSET(cpu, &all)) {
      CPU_SET(cpu, &some);
      ++taken;
    }
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(some), &some), 0);
  body();
  ASSERT_EQ(sched_setaffinity(0, sizeof(all), &all), 0);
}

// FillNormal into `out` that must leave the calling thread's affinity mask
// exactly as it found it: the team's members place themselves, never the
// caller.
void FillKeepingMask(Rng* rng, std::vector<float>* out) {
  cpu_set_t before, after;
  ASSERT_EQ(sched_getaffinity(0, sizeof(before), &before), 0);
  rng->FillNormal(out->data(), out->size(), 0.5, 0.02);
  ASSERT_EQ(sched_getaffinity(0, sizeof(after), &after), 0);
  EXPECT_TRUE(CPU_EQUAL(&before, &after));
}

// The fill takes its thread count from the caller's CPU affinity and
// places each worker on its own allowed CPU; one allowed CPU means the
// caller claims alone. On all CPUs, on two and on one it must give the
// same bytes and leave the same generator. 8 * kFillNormalChunk + 7 is 9
// chunks ending in a partial one: a claim of 8 lanes and one of 1, which
// two allowed CPUs take on two threads.
TEST(RngTest, FillNormalDoesNotDependOnThreadCount) {
  for (size_t n : {40 * Rng::kFillNormalChunk + 5,
                    8 * Rng::kFillNormalChunk + 7}) {
    SCOPED_TRACE(n);
    std::vector<float> wide(n), two(n), narrow(n);
    Rng a(77), b(77), c(77);
    FillKeepingMask(&a, &wide);
    OnCpus(2, [&] { FillKeepingMask(&b, &two); });
    OnCpus(1, [&] { c.FillNormal(narrow.data(), n, 0.5, 0.02); });
    EXPECT_EQ(std::memcmp(wide.data(), two.data(), n * sizeof(float)), 0);
    EXPECT_EQ(std::memcmp(wide.data(), narrow.data(), n * sizeof(float)), 0);
    Rng a_copy = a;
    ExpectSameGenerator(&a, &b);
    ExpectSameGenerator(&a_copy, &c);
  }
}

// One span FillNormal over outputs of `sizes` against FillNormal on each
// output in turn, from the same state (a variate cached or not): the same
// bytes in every output, none written past its end, and the same
// generator after. Output i draws with mean 0.25 i - 0.5 and stddev
// 0.5 + 0.75 i, so a pair that crosses from one output into the next must
// give each variate its own output's. An output of size 0 is null.
void ExpectSpanMatchesEachInOrder(const std::vector<size_t>& sizes,
                                  bool cached) {
  SCOPED_TRACE(::testing::Message() << sizes.size() << " outputs, cached="
                                    << cached);
  Rng span(91), each(91);
  for (int i = 0; i < (cached ? 1 : 2); ++i) {
    span.Normal();
    each.Normal();
  }
  std::vector<std::vector<float>> got, want;
  std::vector<NormalFill> fills;
  for (size_t i = 0; i < sizes.size(); ++i) {
    got.emplace_back(sizes[i] + 1, -7.0f);
    want.emplace_back(sizes[i] + 1, -7.0f);
    fills.push_back({sizes[i] == 0 ? nullptr : got[i].data(), sizes[i],
                     0.25 * static_cast<double>(i) - 0.5,
                     0.5 + 0.75 * static_cast<double>(i)});
  }
  span.FillNormal(fills);
  for (size_t i = 0; i < sizes.size(); ++i) {
    each.FillNormal(want[i].data(), sizes[i], fills[i].mean, fills[i].stddev);
  }
  for (size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(std::memcmp(got[i].data(), want[i].data(),
                          want[i].size() * sizeof(float)),
              0)
        << "output " << i << " of size " << sizes[i];
  }
  ExpectSameGenerator(&span, &each);
}

// Odd counts (a pair crossing each boundary), zero- and one-value outputs,
// outputs that start and end on chunk edges (without a cached variate)
// and off them, spans of many claims on every allowed CPU, and a 6 MiB
// output, which holds whole 2 MiB pages for the team to fault in while
// others claim. Each span runs on every allowed CPU and on one.
TEST(RngTest, SpanFillEqualsEachOutputsFillInOrder) {
  constexpr size_t kChunk = Rng::kFillNormalChunk;
  std::vector<std::vector<size_t>> spans = {
      {3, 0, 1, 5, 2, 1, 1, 7},
      {1},
      {0, 0},
      {kChunk, 2 * kChunk, kChunk, 3},
      {kChunk - 1, kChunk + 1, 3 * kChunk + 3, kChunk / 2 + 1},
      {8 * kChunk + 7, 1, 9 * kChunk, 40 * kChunk + 5, 2},
      {5, (size_t{3} << 19) + 1, 3, 2 * kChunk + 1},
  };
  std::vector<size_t> many;
  for (size_t i = 0; i < 200; ++i) many.push_back(i * 37 % 301);
  spans.push_back(many);
  for (const auto& sizes : spans) {
    for (bool cached : {false, true}) {
      ExpectSpanMatchesEachInOrder(sizes, cached);
      OnCpus(1, [&] { ExpectSpanMatchesEachInOrder(sizes, cached); });
    }
  }
}

// CRC-32 one bit at a time, straight from the polynomial.
uint32_t BitwiseCrc32(const unsigned char* p, size_t n) {
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0 - (c & 1u)));
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, CheckValue) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, SeedChainsIncrementally) {
  std::vector<unsigned char> buf(300);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>(i * 131 + 7);
  }
  const uint32_t whole = Crc32(buf.data(), buf.size());
  for (size_t split : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{13},
                       size_t{64}, size_t{299}, size_t{300}}) {
    EXPECT_EQ(Crc32(buf.data() + split, buf.size() - split,
                    Crc32(buf.data(), split)),
              whole)
        << split;
  }
}

// Every length 0-64 at every start offset 0-7, so each mix of the 8-byte
// loop and the byte tail meets every alignment, then one 1 MiB buffer.
TEST(Crc32Test, MatchesBitwiseReference) {
  Rng rng(99);
  std::vector<unsigned char> buf(size_t{1} << 20);
  for (auto& byte : buf) byte = static_cast<unsigned char>(rng.NextU64());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(Crc32(buf.data() + offset, len),
                BitwiseCrc32(buf.data() + offset, len))
          << "offset " << offset << " len " << len;
    }
  }
  EXPECT_EQ(Crc32(buf.data(), buf.size()),
            BitwiseCrc32(buf.data(), buf.size()));
}

TEST(FaultInjectorTest, FiresAtExactOccurrences) {
  FaultInjector& fi = FaultInjector::Global();
  fi.ArmAt(FaultSite::kLossNaN, {1, 3});
  std::vector<bool> fired;
  for (int i = 0; i < 5; ++i) fired.push_back(MaybeInjectFault(FaultSite::kLossNaN));
  fi.Disarm();
  EXPECT_EQ(fired, (std::vector<bool>{false, true, false, true, false}));
  EXPECT_FALSE(MaybeInjectFault(FaultSite::kLossNaN));  // disarmed: no-op
}

TEST(FaultInjectorTest, SitesAreIndependent) {
  FaultInjector& fi = FaultInjector::Global();
  fi.ArmAt(FaultSite::kCheckpointWrite, {0});
  EXPECT_FALSE(MaybeInjectFault(FaultSite::kCheckpointRead));
  EXPECT_TRUE(MaybeInjectFault(FaultSite::kCheckpointWrite));
  EXPECT_EQ(fi.Fired(FaultSite::kCheckpointWrite), 1);
  EXPECT_EQ(fi.Fired(FaultSite::kCheckpointRead), 0);
  fi.Disarm();
}

TEST(FaultInjectorTest, RandomPlanIsDeterministicPerSeed) {
  FaultInjector& fi = FaultInjector::Global();
  auto draw = [&] {
    fi.ArmRandom(FaultSite::kGradExplode, 0.3, /*seed=*/77);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(MaybeInjectFault(FaultSite::kGradExplode));
    }
    return fired;
  };
  const auto a = draw();
  const auto b = draw();
  fi.Disarm();
  EXPECT_EQ(a, b);
  EXPECT_GT(std::count(a.begin(), a.end(), true), 0);
  EXPECT_LT(std::count(a.begin(), a.end(), true), 64);
}

TEST(TableTest, PrintsAlignedColumns) {
  Table t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "22222"});
  std::ostringstream os;
  t.Print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("-----"), std::string::npos);
  EXPECT_NE(s.find("22222"), std::string::npos);
}

TEST(TableTest, CsvRoundTrip) {
  Table t({"a", "b"});
  t.AddRow({"1", "2"});
  EXPECT_EQ(t.ToCsv(), "a,b\n1,2\n");
}

TEST(FormatTest, CountSuffixes) {
  EXPECT_EQ(FormatCount(110e6), "110M");
  EXPECT_EQ(FormatCount(1.5e9), "1.5B");
  EXPECT_EQ(FormatCount(1.4e12), "1.4T");
  EXPECT_EQ(FormatCount(512), "512");
}

TEST(LinalgTest, SolvesSystem) {
  // x + 2y = 5; 3x - y = 1  ->  x = 1, y = 2.
  std::vector<std::vector<double>> a = {{1, 2}, {3, -1}};
  std::vector<double> b = {5, 1};
  std::vector<double> x;
  ASSERT_TRUE(SolveLinearSystem(a, b, &x));
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], 2.0, 1e-9);
}

TEST(LinalgTest, DetectsSingular) {
  std::vector<std::vector<double>> a = {{1, 2}, {2, 4}};
  std::vector<double> b = {1, 2};
  std::vector<double> x;
  EXPECT_FALSE(SolveLinearSystem(a, b, &x));
}

}  // namespace
}  // namespace llm::util
