// Tests for the utility substrate: Status/StatusOr, Rng, Table, linalg.
#include <gtest/gtest.h>

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <vector>

#include "util/fault.h"
#include "util/linalg.h"
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

// FillNormal against the sequential loop it replaces, from the same state:
// the same bytes out (and none written past n), and the same generator
// after, down to the dead cached_normal field a checkpoint still saves.
void ExpectFillMatchesLoop(size_t n, bool cached, double mean, double stddev) {
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
  std::vector<float> got(n + 1, -7.0f), want(n + 1, -7.0f);
  fill.FillNormal(got.data(), n, mean, stddev);
  for (size_t i = 0; i < n; ++i) {
    want[i] = static_cast<float>(loop.Normal(mean, stddev));
  }
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
            0);
  const RngState a = fill.SaveState();
  const RngState b = loop.SaveState();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a.s[i], b.s[i]);
  EXPECT_EQ(a.have_cached_normal, b.have_cached_normal);
  EXPECT_EQ(std::memcmp(&a.cached_normal, &b.cached_normal, sizeof(double)),
            0);
  EXPECT_EQ(fill.NextU64(), loop.NextU64());
}

TEST(RngTest, FillNormalMatchesSequentialLoop) {
  constexpr size_t kChunk = Rng::kFillNormalChunk;
  // From 3 * kChunk + 1 up these run the threaded path, given more than
  // one allowed CPU.
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, kChunk - 1,
                   kChunk, kChunk + 1, 3 * kChunk + 1, size_t{1} << 20,
                   (size_t{1} << 20) + 1}) {
    for (bool cached : {false, true}) {
      ExpectFillMatchesLoop(n, cached, 0.0, 1.0);
      ExpectFillMatchesLoop(n, cached, -0.75, 2.5);
    }
  }
}

// The fill takes its thread count from the caller's CPU affinity; one
// allowed CPU means the inline path, and must give the same bytes.
TEST(RngTest, FillNormalDoesNotDependOnThreadCount) {
  constexpr size_t kN = 40 * Rng::kFillNormalChunk + 5;
  std::vector<float> wide(kN), narrow(kN);
  Rng a(77), b(77);
  a.FillNormal(wide.data(), kN, 0.5, 0.02);
  cpu_set_t all, one;
  ASSERT_EQ(sched_getaffinity(0, sizeof(all), &all), 0);
  CPU_ZERO(&one);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &all)) {
      CPU_SET(cpu, &one);
      break;
    }
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  b.FillNormal(narrow.data(), kN, 0.5, 0.02);
  ASSERT_EQ(sched_setaffinity(0, sizeof(all), &all), 0);
  EXPECT_EQ(std::memcmp(wide.data(), narrow.data(), kN * sizeof(float)), 0);
  EXPECT_EQ(a.NextU64(), b.NextU64());
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
