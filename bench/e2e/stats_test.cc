#include "stats.h"

#include <cmath>

#include <gtest/gtest.h>

namespace llm::bench_e2e {
namespace {

using std::chrono::milliseconds;
using std::chrono::nanoseconds;

TEST(NearestRank, KnownVectors) {
  const std::vector<double> ten = {7, 3, 10, 1, 9, 2, 8, 4, 6, 5};
  EXPECT_EQ(NearestRank(ten, 0.0), 1);
  EXPECT_EQ(NearestRank(ten, 0.5), 5);   // rank ceil(5.0) = 5
  EXPECT_EQ(NearestRank(ten, 0.9), 9);   // rank ceil(9.0) = 9
  EXPECT_EQ(NearestRank(ten, 0.91), 10);  // rank ceil(9.1) = 10
  EXPECT_EQ(NearestRank(ten, 0.99), 10);
  EXPECT_EQ(NearestRank(ten, 1.0), 10);
  EXPECT_EQ(NearestRank({4, 1, 3, 2}, 0.5), 2);  // no interpolation
  EXPECT_EQ(NearestRank({42}, 0.9), 42);
  EXPECT_TRUE(std::isnan(NearestRank({}, 0.5)));
}

TEST(TokensInWindow, CountsTheBeginEdgeButNotTheEnd) {
  const Clock::time_point t0{};
  const Window window{t0 + milliseconds(100), t0 + milliseconds(200)};
  RequestTimes times;
  times.tokens = {t0 + milliseconds(100) - nanoseconds(1),  // before
                  t0 + milliseconds(100),                   // on begin
                  t0 + milliseconds(150),
                  t0 + milliseconds(200) - nanoseconds(1),  // last inside
                  t0 + milliseconds(200)};                  // on end
  EXPECT_EQ(TokensInWindow(times, window), 3);
  EXPECT_DOUBLE_EQ(window.seconds(), 0.1);
}

TEST(ShareInWindow, CountsThePartOfSubmitToLastTokenInsideTheWindow) {
  const Clock::time_point t0{};
  const Window window{t0 + milliseconds(100), t0 + milliseconds(200)};
  RequestTimes times;
  times.submit_begin = t0 + milliseconds(60);
  EXPECT_EQ(ShareInWindow(times, window), 0.0);  // streamed nothing
  times.tokens = {t0 + milliseconds(80), t0 + milliseconds(140)};
  EXPECT_DOUBLE_EQ(ShareInWindow(times, window), 0.5);  // 40 of 80 ms
  times.submit_begin = t0 + milliseconds(120);
  times.tokens = {t0 + milliseconds(130), t0 + milliseconds(160)};
  EXPECT_DOUBLE_EQ(ShareInWindow(times, window), 1.0);  // all inside
  times.tokens.back() = t0 + milliseconds(220);
  EXPECT_DOUBLE_EQ(ShareInWindow(times, window), 0.8);  // 80 of 100 ms
  times.submit_begin = t0 + milliseconds(200);
  times.tokens = {t0 + milliseconds(250)};
  EXPECT_EQ(ShareInWindow(times, window), 0.0);  // after it
}

TEST(MedianCompletionRate, IgnoresAStalledPiece) {
  // One client back to back: 50 ms requests, except one of 100 ms that
  // fills the third 100 ms piece. The mean rate would be 17.5/s.
  const Clock::time_point t0{};
  std::vector<RequestTimes> requests;
  for (const auto& [from, to] : std::vector<std::pair<int, int>>{
           {0, 50}, {50, 100}, {100, 150}, {150, 200},
           {200, 300}, {300, 350}, {350, 400}}) {
    RequestTimes times;
    times.submit_begin = t0 + milliseconds(from);
    times.tokens = {t0 + milliseconds(to)};
    requests.push_back(times);
  }
  // The last 50 ms do not fill a piece and are dropped.
  const Window window{t0, t0 + milliseconds(450)};
  EXPECT_DOUBLE_EQ(MedianCompletionRate(requests, window, 0.1), 20.0);
  EXPECT_TRUE(std::isnan(MedianCompletionRate(requests, window, 1.0)));
}

TEST(HostSpeedScaling, CancelsAUniformSlowdown) {
  // A host 1.5x slower than nominal: the reference reads 90 ms, not 60.
  EXPECT_DOUBLE_EQ(ScaleTime(0.3, 90.0, 60.0), 0.2);
  EXPECT_DOUBLE_EQ(ScaleTime(0.3, 60.0, 60.0), 0.3);
}

TEST(Ttft, IsTimedFromTheDueTimeWhenTheGeneratorIsLate) {
  const Clock::time_point due{};
  RequestTimes times;
  times.due = due;
  times.submit_begin = due + milliseconds(30);  // the client ran late
  times.submit_end = due + milliseconds(31);
  times.tokens = {due + milliseconds(50), due + milliseconds(60),
                  due + milliseconds(75)};
  EXPECT_DOUBLE_EQ(TtftMs(times), 50.0);  // not 20 from submit_begin
  EXPECT_DOUBLE_EQ(GenLagMs(times), 30.0);
  std::vector<double> gaps;
  AppendInterTokenGapsMs(times, &gaps);
  EXPECT_EQ(gaps, (std::vector<double>{10.0, 15.0}));
}

TEST(SharedPrefixShare, CountsTheLongestPrefixSharedWithAnyEarlierPrompt) {
  // Shares: 0, then 3 with the first, then 2 with either, then 0; the
  // fifth repeats the second whole.
  const std::vector<std::vector<int64_t>> prompts = {
      {1, 2, 3, 4}, {1, 2, 3, 5}, {1, 2, 9}, {7}, {1, 2, 3, 5}};
  EXPECT_DOUBLE_EQ(SharedPrefixShare(prompts), (3.0 + 2.0 + 4.0) / 16.0);
  EXPECT_DOUBLE_EQ(SharedPrefixShare({{5, 6}, {6, 5}}), 0.0);
  EXPECT_DOUBLE_EQ(SharedPrefixShare({}), 0.0);
}

TEST(SelfTime, SubtractsTheUnionOfChildrenClippedToTheSpan) {
  const std::vector<Span> spans = {{"request", -1, 0.0, 100.0},
                                   {"a", 0, 10.0, 30.0},
                                   {"b", 0, 20.0, 50.0},    // overlaps a
                                   {"c", 0, 90.0, 120.0},   // runs past 100
                                   {"d", 1, 12.0, 14.0}};   // grandchild
  EXPECT_DOUBLE_EQ(SelfTimeMs(spans, 0), 100.0 - 40.0 - 10.0);
  EXPECT_DOUBLE_EQ(SelfTimeMs(spans, 1), 20.0 - 2.0);
  EXPECT_DOUBLE_EQ(SelfTimeMs(spans, 4), 2.0);
}

}  // namespace
}  // namespace llm::bench_e2e
