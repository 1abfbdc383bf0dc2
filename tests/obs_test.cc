// Tests for the observability subsystem (src/obs): metrics registry,
// geometric histograms (including the regression against the old
// sliding-window percentile math that ServerStats used to carry), the
// lock-free flight recorder under racing producers, scoped profiling
// timers, and the fault-injector count/listener surface.
// Registered under the `obs` ctest label; the `tsan-obs` preset runs it
// under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "util/fault.h"
#include "util/rng.h"

namespace llm::obs {
namespace {

class ObsTest : public ::testing::Test {
 protected:
  void TearDown() override {
    util::FaultInjector::Global().Disarm();
    util::FaultInjector::SetFireListener(nullptr);
    EnableProfiling(false);
  }
};

// --- Counter / Gauge / registry --------------------------------------------

TEST_F(ObsTest, CounterIncrementsAndResets) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.requests");
  EXPECT_EQ(c->value(), 0u);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->value(), 42u);
  // Same name resolves to the same storage.
  EXPECT_EQ(registry.GetCounter("test.requests"), c);
  registry.ResetAll();
  EXPECT_EQ(c->value(), 0u);
}

TEST_F(ObsTest, GaugeLastWriteWins) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("test.depth");
  g->Set(3.5);
  g->Set(-1.0);
  EXPECT_DOUBLE_EQ(g->value(), -1.0);
  // ResetAll leaves gauges alone: they report "current level", not totals.
  registry.ResetAll();
  EXPECT_DOUBLE_EQ(g->value(), -1.0);
}

TEST_F(ObsTest, JsonSnapshotIsDeterministicAndComplete) {
  MetricsRegistry registry;
  registry.GetCounter("b.count")->Increment(7);
  registry.GetCounter("a.count")->Increment(1);
  registry.GetGauge("z.gauge")->Set(2.5);
  registry.GetHistogram("lat.ms")->Record(10.0);
  const std::string json = registry.JsonSnapshot();
  EXPECT_EQ(json, registry.JsonSnapshot());  // deterministic
  EXPECT_NE(json.find("\"a.count\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"b.count\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"z.gauge\":2.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"lat.ms\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\":1"), std::string::npos) << json;
  // Keys sorted: a.count before b.count.
  EXPECT_LT(json.find("\"a.count\""), json.find("\"b.count\""));
}

// --- Histogram -------------------------------------------------------------

TEST_F(ObsTest, HistogramBucketIndexMonotone) {
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(-5.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(Histogram::kMinValue), 0);
  int prev = 0;
  for (double v = Histogram::kMinValue; v < 1e6; v *= 1.07) {
    const int idx = Histogram::BucketIndex(v);
    EXPECT_GE(idx, prev);
    EXPECT_LT(idx, Histogram::kNumBuckets);
    // The last bucket absorbs everything above its nominal bound.
    if (idx < Histogram::kNumBuckets - 1) {
      EXPECT_LE(v, Histogram::BucketUpperBound(idx) * 1.0000001);
    }
    prev = idx;
  }
}

TEST_F(ObsTest, HistogramSingleSampleAllQuantilesAgree) {
  Histogram hist;
  hist.Record(12.0);
  const double p50 = hist.Percentile(0.50);
  EXPECT_GT(p50, 0.0);
  EXPECT_DOUBLE_EQ(p50, hist.Percentile(0.95));
  EXPECT_DOUBLE_EQ(p50, hist.Percentile(0.99));
  // The representative is within one bucket width of the sample.
  EXPECT_GE(p50, 12.0 / Histogram::kGrowth);
  EXPECT_LE(p50, 12.0 * Histogram::kGrowth);
}

TEST_F(ObsTest, HistogramEmptyReturnsZero) {
  Histogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_DOUBLE_EQ(hist.Percentile(0.5), 0.0);
}

TEST_F(ObsTest, HistogramIgnoresNaN) {
  Histogram hist;
  hist.Record(std::nan(""));
  EXPECT_EQ(hist.count(), 0u);
  hist.Record(1.0);
  EXPECT_EQ(hist.count(), 1u);
}

// The exact percentile convention ServerStats used before the histogram
// replaced it: sort the window, rank = q * (n - 1), linear interpolation.
double SlidingWindowPercentile(std::vector<double> window, double q) {
  if (window.empty()) return 0.0;
  std::sort(window.begin(), window.end());
  const double rank = q * static_cast<double>(window.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, window.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return window[lo] * (1.0 - frac) + window[hi] * frac;
}

// Satellite regression: on a reference latency stream, the bucketed
// estimate must agree with the old sliding-window math to within one
// bucket width (a factor of kGrowth) at every percentile ServerStats
// reports.
TEST_F(ObsTest, HistogramMatchesSlidingWindowWithinOneBucket) {
  util::Rng rng(20260806);
  std::vector<double> stream;
  stream.reserve(4096);
  Histogram hist;
  for (int i = 0; i < 4096; ++i) {
    // Log-normal-ish latencies spanning ~0.5ms to ~100ms — several dozen
    // buckets, heavier right tail, like real completion latencies.
    const double ms = 0.5 * std::exp(2.5 * rng.Uniform() + rng.Uniform());
    stream.push_back(ms);
    hist.Record(ms);
  }
  for (double q : {0.50, 0.95, 0.99}) {
    const double exact = SlidingWindowPercentile(stream, q);
    const double est = hist.Percentile(q);
    EXPECT_GT(est, 0.0);
    // One bucket width in log space, plus a hair for the rank-convention
    // difference (truncation vs interpolation between order statistics).
    EXPECT_LE(std::abs(std::log(est / exact)),
              std::log(Histogram::kGrowth) * 1.05)
        << "q=" << q << " exact=" << exact << " est=" << est;
  }
  EXPECT_EQ(hist.count(), 4096u);
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_NEAR(snap.mean(),
              std::accumulate(stream.begin(), stream.end(), 0.0) / 4096.0,
              1e-6);
  EXPECT_DOUBLE_EQ(snap.max, *std::max_element(stream.begin(), stream.end()));
}

TEST_F(ObsTest, HistogramPercentilesAreOrdered) {
  Histogram hist;
  util::Rng rng(7);
  for (int i = 0; i < 1000; ++i) hist.Record(rng.Uniform() * 50.0 + 0.1);
  const double p50 = hist.Percentile(0.50);
  const double p95 = hist.Percentile(0.95);
  const double p99 = hist.Percentile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
}

// --- ScopedTimer -----------------------------------------------------------

TEST_F(ObsTest, ScopedTimerNoOpWhileProfilingDisabled) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("timer.ms");
  EnableProfiling(false);
  { ScopedTimer timer(hist); }
  EXPECT_EQ(hist->count(), 0u);
  EnableProfiling(true);
  { ScopedTimer timer(hist); }
  { ScopedTimer timer(hist); }
  EXPECT_EQ(hist->count(), 2u);
  EnableProfiling(false);
  { ScopedTimer timer(hist); }
  EXPECT_EQ(hist->count(), 2u);
}

// --- FaultInjector counts and listener (util/fault satellite) --------------

std::vector<std::pair<util::FaultSite, int64_t>>& FiredLog() {
  static std::vector<std::pair<util::FaultSite, int64_t>> log;
  return log;
}

TEST_F(ObsTest, FaultInjectorExposesPerSiteCounts) {
  auto& injector = util::FaultInjector::Global();
  injector.ArmAt(util::FaultSite::kDecodeNaN, {1, 3});
  for (int i = 0; i < 5; ++i) {
    (void)injector.ShouldFire(util::FaultSite::kDecodeNaN);
  }
  EXPECT_EQ(injector.Occurrences(util::FaultSite::kDecodeNaN), 5);
  EXPECT_EQ(injector.Fired(util::FaultSite::kDecodeNaN), 2);

  const auto counts = injector.AllCounts();
  ASSERT_EQ(counts.size(), static_cast<size_t>(util::kNumFaultSites));
  const auto& decode =
      counts[static_cast<size_t>(util::FaultSite::kDecodeNaN)];
  EXPECT_EQ(decode.site, util::FaultSite::kDecodeNaN);
  EXPECT_EQ(decode.seen, 5);
  EXPECT_EQ(decode.fired, 2);
  // Unarmed sites report zero activity.
  const auto& ckpt =
      counts[static_cast<size_t>(util::FaultSite::kCheckpointWrite)];
  EXPECT_EQ(ckpt.seen, 0);
  EXPECT_EQ(ckpt.fired, 0);
}

TEST_F(ObsTest, PublishFaultMetricsSurfacesCountsAsGauges) {
  auto& injector = util::FaultInjector::Global();
  injector.ArmAt(util::FaultSite::kSlotLeak, {0});
  (void)injector.ShouldFire(util::FaultSite::kSlotLeak);
  (void)injector.ShouldFire(util::FaultSite::kSlotLeak);

  MetricsRegistry registry;
  PublishFaultMetrics(&registry);
  EXPECT_DOUBLE_EQ(registry.GetGauge("fault.slot-leak.seen")->value(), 2.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("fault.slot-leak.fired")->value(), 1.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("fault.decode-nan.seen")->value(), 0.0);
}

TEST_F(ObsTest, FireListenerSeesEveryFiringWithItsOccurrence) {
  FiredLog().clear();
  util::FaultInjector::SetFireListener(
      +[](util::FaultSite site, int64_t occurrence) {
        FiredLog().emplace_back(site, occurrence);
      });
  auto& injector = util::FaultInjector::Global();
  injector.ArmAt(util::FaultSite::kGradExplode, {0, 2});
  for (int i = 0; i < 4; ++i) {
    (void)injector.ShouldFire(util::FaultSite::kGradExplode);
  }
  ASSERT_EQ(FiredLog().size(), 2u);
  EXPECT_EQ(FiredLog()[0],
            std::make_pair(util::FaultSite::kGradExplode, int64_t{0}));
  EXPECT_EQ(FiredLog()[1],
            std::make_pair(util::FaultSite::kGradExplode, int64_t{2}));
}

TEST_F(ObsTest, WiredFaultFiringsLandInFlightRecorder) {
  WireFaultEventsToFlightRecorder();
  FlightRecorder::Global().Clear();
  auto& injector = util::FaultInjector::Global();
  injector.ArmAt(util::FaultSite::kOnTokenThrow, {0});
  (void)injector.ShouldFire(util::FaultSite::kOnTokenThrow);
  const auto events = FlightRecorder::Global().Dump();
  bool found = false;
  for (const FlightEvent& e : events) {
    if (e.type == FlightEventType::kFaultInjected &&
        e.a == static_cast<int32_t>(util::FaultSite::kOnTokenThrow) &&
        e.b == 0) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// --- FlightRecorder --------------------------------------------------------

TEST_F(ObsTest, FlightRecorderOrdersEventsByTicket) {
  FlightRecorder rec(16);
  rec.Record(FlightEventType::kAdmission, 1, 100);
  rec.Record(FlightEventType::kRetirement, 2, 100, 8);
  rec.Record(FlightEventType::kDrainBegin);
  EXPECT_EQ(rec.total_recorded(), 3u);
  const auto events = rec.Dump();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].type, FlightEventType::kAdmission);
  EXPECT_EQ(events[0].a, 1);
  EXPECT_EQ(events[0].b, 100);
  EXPECT_EQ(events[1].type, FlightEventType::kRetirement);
  EXPECT_EQ(events[1].c, 8);
  EXPECT_EQ(events[2].type, FlightEventType::kDrainBegin);
  EXPECT_LT(events[0].ticket, events[1].ticket);
  EXPECT_LT(events[1].ticket, events[2].ticket);
  EXPECT_LE(events[0].ts_ns, events[2].ts_ns);
}

TEST_F(ObsTest, FlightRecorderKeepsNewestWhenLapped) {
  FlightRecorder rec(8);
  for (int i = 0; i < 20; ++i) {
    rec.Record(FlightEventType::kAdmission, i, i);
  }
  EXPECT_EQ(rec.total_recorded(), 20u);
  const auto events = rec.Dump();
  ASSERT_EQ(events.size(), 8u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, static_cast<int32_t>(12 + i));
    EXPECT_EQ(events[i].ticket, 12 + i);
  }
  // Dump with a cap returns only the newest.
  const auto tail = rec.Dump(3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].a, 17);
}

TEST_F(ObsTest, FlightRecorderDisabledRecordsNothing) {
  FlightRecorder rec(8);
  rec.SetEnabled(false);
  rec.Record(FlightEventType::kAdmission, 1, 1);
  EXPECT_EQ(rec.total_recorded(), 0u);
  EXPECT_TRUE(rec.Dump().empty());
  rec.SetEnabled(true);
  rec.Record(FlightEventType::kAdmission, 2, 2);
  EXPECT_EQ(rec.Dump().size(), 1u);
}

TEST_F(ObsTest, FlightRecorderClearEmptiesRing) {
  FlightRecorder rec(8);
  rec.Record(FlightEventType::kDrainBegin);
  rec.Clear();
  EXPECT_EQ(rec.total_recorded(), 0u);
  EXPECT_TRUE(rec.Dump().empty());
  rec.Record(FlightEventType::kAdmission, 3, 3);
  const auto events = rec.Dump();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].a, 3);
}

TEST_F(ObsTest, FlightRecorderFormatMentionsEventNames) {
  FlightRecorder rec(8);
  rec.Record(FlightEventType::kBreakerTransition, 1, 0, 1);
  rec.Record(FlightEventType::kFailover, 2, 77, 1);
  const std::string text = rec.Format();
  EXPECT_NE(text.find("breaker-transition"), std::string::npos) << text;
  EXPECT_NE(text.find("failover"), std::string::npos) << text;
}

// Satellite: racing producers plus a mid-stream dumper. Every event a
// dump returns must be internally consistent (the c field is a function
// of a and b, so a torn slot — fields from two different writers — would
// be caught), tickets strictly ascend, and nothing ever deadlocks. TSan
// (the tsan-obs preset) checks the memory-order story.
TEST_F(ObsTest, FlightRecorderConcurrentWritersAndDumper) {
  FlightRecorder rec(64);  // small ring: writers lap each other constantly
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  std::atomic<bool> start{false};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> dumps{0};

  std::thread dumper([&] {
    do {  // at least one dump, however fast the producers finish
      const auto events = rec.Dump();
      uint64_t prev_ticket = 0;
      bool first = true;
      for (const FlightEvent& e : events) {
        ASSERT_EQ(e.type, FlightEventType::kAdmission);
        // Payload invariant: c = a * 1e6 + b. A torn slot breaks it.
        ASSERT_EQ(e.c, static_cast<int64_t>(e.a) * 1000000 + e.b);
        if (!first) {
          ASSERT_GT(e.ticket, prev_ticket);
        }
        prev_ticket = e.ticket;
        first = false;
      }
      dumps.fetch_add(1, std::memory_order_relaxed);
    } while (!done.load(std::memory_order_acquire));
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kPerProducer; ++i) {
        rec.Record(FlightEventType::kAdmission, p, i,
                   static_cast<int64_t>(p) * 1000000 + i);
      }
    });
  }
  start.store(true, std::memory_order_release);
  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  dumper.join();

  EXPECT_EQ(rec.total_recorded(),
            static_cast<uint64_t>(kProducers) * kPerProducer);
  EXPECT_GT(dumps.load(), 0u);
  // Quiescent dump: exactly the newest `capacity` events, fully coherent.
  const auto events = rec.Dump();
  EXPECT_EQ(events.size(), rec.capacity());
  for (const FlightEvent& e : events) {
    EXPECT_EQ(e.c, static_cast<int64_t>(e.a) * 1000000 + e.b);
  }
}

// --- Dump boundary regressions ---------------------------------------------

TEST_F(ObsTest, FlightRecorderDumpZeroMaxEventsIsEmpty) {
  FlightRecorder rec(8);
  rec.Record(FlightEventType::kAdmission, 1, 1);
  rec.Record(FlightEventType::kAdmission, 2, 2);
  EXPECT_TRUE(rec.Dump(0).empty());
  EXPECT_TRUE(rec.DumpSince(0, 0).empty());
}

TEST_F(ObsTest, FlightRecorderDumpMaxEventsEqualsCapacity) {
  FlightRecorder rec(8);
  ASSERT_EQ(rec.capacity(), 8u);
  // Exactly full, not wrapped: a cap equal to capacity returns all of it.
  for (int i = 0; i < 8; ++i) {
    rec.Record(FlightEventType::kAdmission, i, i);
  }
  auto events = rec.Dump(rec.capacity());
  ASSERT_EQ(events.size(), 8u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ticket, i);
  }
  // Wrapped: still exactly capacity events, the newest ones.
  for (int i = 8; i < 13; ++i) {
    rec.Record(FlightEventType::kAdmission, i, i);
  }
  events = rec.Dump(rec.capacity());
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(events.front().ticket, 5u);
  EXPECT_EQ(events.back().ticket, 12u);
}

// Satellite regression: a dump racing a writer that is actively wrapping
// the ring. Every returned event must be coherent and strictly
// ticket-ascending; slots torn mid-write are skipped, never returned.
// The tsan-obs preset runs this under ThreadSanitizer.
TEST_F(ObsTest, FlightRecorderDumpRacesWrappingWriter) {
  FlightRecorder rec(8);  // tiny ring: every 8 records is a full lap
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < 200000 && !done.load(std::memory_order_relaxed);
         ++i) {
      rec.Record(FlightEventType::kAdmission, i & 0x7FFFFFFF, i,
                 static_cast<int64_t>(i) * 3 + 1);
    }
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) {
    const auto events = rec.Dump();
    uint64_t prev = 0;
    bool first = true;
    for (const FlightEvent& e : events) {
      ASSERT_EQ(e.c, e.b * 3 + 1);  // torn slot detector
      if (!first) ASSERT_GT(e.ticket, prev);
      prev = e.ticket;
      first = false;
    }
  }
  writer.join();
}

TEST_F(ObsTest, FlightRecorderDumpSinceFiltersOldTickets) {
  FlightRecorder rec(16);
  for (int i = 0; i < 10; ++i) {
    rec.Record(FlightEventType::kAdmission, i, i);
  }
  const auto delta = rec.DumpSince(6);
  ASSERT_EQ(delta.size(), 4u);
  EXPECT_EQ(delta.front().ticket, 6u);
  EXPECT_EQ(delta.back().ticket, 9u);
  // Cursor past the end: empty delta, the shipper's steady state.
  EXPECT_TRUE(rec.DumpSince(10).empty());
  EXPECT_TRUE(rec.DumpSince(1000).empty());
  // min_ticket == 0 is a plain Dump.
  EXPECT_EQ(rec.DumpSince(0).size(), 10u);
}

TEST_F(ObsTest, FlightRecorderDumpSinceAfterWrapReturnsSurvivors) {
  FlightRecorder rec(8);
  for (int i = 0; i < 20; ++i) {
    rec.Record(FlightEventType::kAdmission, i, i);
  }
  // Ring holds tickets 12..19. A cursor pointing into the evicted range
  // returns everything that survived.
  const auto delta = rec.DumpSince(5);
  ASSERT_EQ(delta.size(), 8u);
  EXPECT_EQ(delta.front().ticket, 12u);
  // A cursor inside the surviving range trims exactly.
  EXPECT_EQ(rec.DumpSince(15).size(), 5u);
}

// Satellite: the clock contract documented on FlightEvent — timestamps
// come from steady_clock, so they are monotone non-decreasing in ticket
// order and consistent with a bracketing pair of steady_clock readings.
TEST_F(ObsTest, FlightRecorderTimestampsAreSteadyClockMonotone) {
  FlightRecorder rec(256);
  const int64_t before = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now().time_since_epoch())
                             .count();
  for (int i = 0; i < 100; ++i) {
    rec.Record(FlightEventType::kAdmission, i, i);
  }
  const int64_t after = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now().time_since_epoch())
                            .count();
  const auto events = rec.Dump();
  ASSERT_EQ(events.size(), 100u);
  int64_t prev = before;
  for (const FlightEvent& e : events) {
    EXPECT_GE(e.ts_ns, prev);  // never steps backwards across tickets
    prev = e.ts_ns;
  }
  EXPECT_LE(prev, after);
}

// --- HistogramSnapshot::Merge + RegistrySnapshot ---------------------------

TEST_F(ObsTest, HistogramSnapshotMergeAddsCountsAndBuckets) {
  Histogram a, b;
  for (int i = 0; i < 10; ++i) a.Record(5.0);
  for (int i = 0; i < 30; ++i) b.Record(500.0);
  HistogramSnapshot sa = a.Snapshot();
  const HistogramSnapshot sb = b.Snapshot();
  sa.Merge(sb);
  EXPECT_EQ(sa.count, 40u);
  EXPECT_DOUBLE_EQ(sa.sum, 10 * 5.0 + 30 * 500.0);
  EXPECT_DOUBLE_EQ(sa.max, 500.0);
  // Percentiles read from the merged buckets: p20 sits in the 5.0 mass,
  // p80 in the 500.0 mass (one geometric bucket of slop each way).
  EXPECT_LE(sa.Percentile(0.20), 5.0 * Histogram::kGrowth);
  EXPECT_GE(sa.Percentile(0.80), 500.0 / Histogram::kGrowth);
}

TEST_F(ObsTest, HistogramSnapshotMergeWithEmptySides) {
  Histogram a;
  a.Record(7.0);
  HistogramSnapshot sa = a.Snapshot();
  HistogramSnapshot empty;
  sa.Merge(empty);  // no-op
  EXPECT_EQ(sa.count, 1u);
  empty.Merge(sa);  // empty absorbs the populated side
  EXPECT_EQ(empty.count, 1u);
  EXPECT_DOUBLE_EQ(empty.max, sa.max);
  EXPECT_EQ(empty.buckets.size(), sa.buckets.size());
}

TEST_F(ObsTest, RegistrySnapshotFiltersByPrefix) {
  MetricsRegistry registry;
  registry.GetCounter("dist.worker.0.steps")->Increment(7);
  registry.GetCounter("dist.worker.1.steps")->Increment(9);
  registry.GetCounter("serve.requests")->Increment(3);
  registry.GetGauge("dist.worker.0.step")->Set(6.0);
  registry.GetHistogram("dist.worker.0.lat")->Record(2.0);

  const RegistrySnapshot all = registry.Snapshot();
  EXPECT_EQ(all.counters.size(), 3u);
  EXPECT_EQ(all.counters.at("serve.requests"), 3u);

  const RegistrySnapshot mine = registry.Snapshot("dist.worker.0.");
  EXPECT_EQ(mine.counters.size(), 1u);
  EXPECT_EQ(mine.counters.at("dist.worker.0.steps"), 7u);
  EXPECT_EQ(mine.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(mine.gauges.at("dist.worker.0.step"), 6.0);
  ASSERT_EQ(mine.histograms.size(), 1u);
  EXPECT_EQ(mine.histograms.at("dist.worker.0.lat").count, 1u);
}

}  // namespace
}  // namespace llm::obs
