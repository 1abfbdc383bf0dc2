// Tests for the gang telemetry plane (src/obs/telemetry): the
// RankTelemetry codec (round-trip, corruption rejection), capture
// filtering for shared-process workers, the coordinator-side
// TelemetryAggregator (merged counters/histograms, per-rank views, the
// deduped gang timeline), the crash-postmortem file format, and the
// IncidentReport renderings. Registered under the `obs` ctest label.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "util/crc32.h"
#include "util/status.h"

namespace llm::obs {
namespace {

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().ResetAll();
    FlightRecorder::Global().Clear();
  }
};

FlightEvent MakeEvent(uint64_t ticket, int64_t ts_ns, FlightEventType type,
                      int32_t a, int64_t b, int64_t c) {
  FlightEvent ev;
  ev.ticket = ticket;
  ev.ts_ns = ts_ns;
  ev.type = type;
  ev.a = a;
  ev.b = b;
  ev.c = c;
  return ev;
}

RankTelemetry MakeUnit(int32_t rank, int64_t epoch, int64_t step) {
  RankTelemetry unit;
  unit.rank = rank;
  unit.epoch = epoch;
  unit.step = step;
  unit.reason = kTelemetryShipPeriodic;
  return unit;
}

std::string ScratchDir(const char* leaf) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("tfmr_telemetry_test_" + std::to_string(::getpid())) /
                   leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

// --- Codec -----------------------------------------------------------------

TEST_F(TelemetryTest, CodecRoundTripsEveryField) {
  RankTelemetry unit = MakeUnit(/*rank=*/3, /*epoch=*/2, /*step=*/117);
  unit.reason = kTelemetryShipFinal;
  unit.metrics.counters["dist.worker.3.steps"] = 117;
  unit.metrics.counters["dist.worker.3.telemetry_bytes"] = 40961;
  unit.metrics.gauges["dist.worker.3.lr"] = 2.5e-4;
  Histogram h;
  h.Record(1.0);
  h.Record(8.0);
  h.Record(8.0);
  unit.metrics.histograms["dist.worker.3.step_ms"] = h.Snapshot();
  unit.events.push_back(MakeEvent(10, 1'000'000, FlightEventType::kWorkerJoin,
                                  3, 2, 0));
  unit.events.push_back(MakeEvent(11, 2'000'000,
                                  FlightEventType::kTelemetryShip, 3, 117,
                                  kTelemetryShipFinal));

  const std::vector<uint8_t> blob = EncodeRankTelemetry(unit);
  ASSERT_FALSE(blob.empty());
  auto decoded = DecodeRankTelemetry(blob);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const RankTelemetry& out = decoded.value();

  EXPECT_EQ(out.rank, 3);
  EXPECT_EQ(out.epoch, 2);
  EXPECT_EQ(out.step, 117);
  EXPECT_EQ(out.reason, kTelemetryShipFinal);
  EXPECT_EQ(out.metrics.counters, unit.metrics.counters);
  ASSERT_EQ(out.metrics.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(out.metrics.gauges.at("dist.worker.3.lr"), 2.5e-4);
  ASSERT_EQ(out.metrics.histograms.size(), 1u);
  const HistogramSnapshot& hs =
      out.metrics.histograms.at("dist.worker.3.step_ms");
  EXPECT_EQ(hs.count, 3u);
  EXPECT_DOUBLE_EQ(hs.sum, 17.0);
  EXPECT_DOUBLE_EQ(hs.max, 8.0);
  EXPECT_EQ(hs.buckets, unit.metrics.histograms.at("dist.worker.3.step_ms")
                            .buckets);
  ASSERT_EQ(out.events.size(), 2u);
  EXPECT_EQ(out.events[0].ticket, 10u);
  EXPECT_EQ(out.events[0].ts_ns, 1'000'000);
  EXPECT_EQ(out.events[0].type, FlightEventType::kWorkerJoin);
  EXPECT_EQ(out.events[1].ticket, 11u);
  EXPECT_EQ(out.events[1].a, 3);
  EXPECT_EQ(out.events[1].b, 117);
  EXPECT_EQ(out.events[1].c, kTelemetryShipFinal);
}

TEST_F(TelemetryTest, CodecRoundTripsEmptyUnit) {
  const RankTelemetry unit = MakeUnit(0, 0, 0);
  auto decoded = DecodeRankTelemetry(EncodeRankTelemetry(unit));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().metrics.counters.empty());
  EXPECT_TRUE(decoded.value().events.empty());
}

TEST_F(TelemetryTest, CodecRejectsCorruptionAnywhere) {
  RankTelemetry unit = MakeUnit(1, 0, 9);
  unit.metrics.counters["a.b"] = 7;
  unit.events.push_back(
      MakeEvent(0, 5, FlightEventType::kCheckpointSaved, 0, 9, 0));
  const std::vector<uint8_t> blob = EncodeRankTelemetry(unit);

  // Any single flipped byte must be caught by the trailing CRC (or the
  // magic/version check when the header is hit).
  for (size_t i = 0; i < blob.size(); i += 7) {
    std::vector<uint8_t> bad = blob;
    bad[i] ^= 0x5a;
    auto decoded = DecodeRankTelemetry(bad);
    EXPECT_FALSE(decoded.ok()) << "flipped byte " << i << " was accepted";
  }
}

TEST_F(TelemetryTest, CodecRejectsTruncationAndEmpty) {
  RankTelemetry unit = MakeUnit(1, 0, 9);
  unit.metrics.counters["a.b"] = 7;
  const std::vector<uint8_t> blob = EncodeRankTelemetry(unit);
  for (size_t keep : {size_t{0}, size_t{3}, blob.size() / 2,
                      blob.size() - 1}) {
    auto decoded = DecodeRankTelemetry(blob.data(), keep);
    EXPECT_FALSE(decoded.ok()) << "truncated to " << keep << " accepted";
  }
}

/// A unit with every field set: two counters, a gauge, a histogram and
/// two events.
RankTelemetry PinnedUnit() {
  RankTelemetry unit = MakeUnit(/*rank=*/2, /*epoch=*/5, /*step=*/1234);
  unit.reason = kTelemetryShipPostmortem;
  unit.metrics.counters["dist.worker.2.steps"] = 1234;
  unit.metrics.counters["dist.worker.2.telemetry_bytes"] = 0x1122334455ull;
  unit.metrics.gauges["dist.worker.2.lr"] = -3.75e-4;
  Histogram h;
  for (double v : {0.5, 2.0, 33.0, 1e6}) h.Record(v);
  unit.metrics.histograms["dist.worker.2.step_ms"] = h.Snapshot();
  unit.events.push_back(MakeEvent(40, -7, FlightEventType::kWorkerJoin, -1,
                                  int64_t{1} << 40, -2));
  unit.events.push_back(MakeEvent(41, 9'000'000'000,
                                  FlightEventType::kPostmortemDump, 2, 1234,
                                  11));
  return unit;
}

TEST_F(TelemetryTest, CodecBytesArePinned) {
  const std::vector<uint8_t> blob = EncodeRankTelemetry(PinnedUnit());
  EXPECT_EQ(blob.size(), 1181u);
  EXPECT_EQ(util::Crc32(blob.data(), blob.size()), 0x2144df1cu);
}

TEST_F(TelemetryTest, EveryProperPrefixIsRejectedAsInternal) {
  const std::vector<uint8_t> blob = EncodeRankTelemetry(PinnedUnit());
  for (size_t keep = 0; keep < blob.size(); ++keep) {
    EXPECT_EQ(DecodeRankTelemetry(blob.data(), keep).status().code(),
              util::StatusCode::kInternal)
        << "prefix of " << keep << " bytes";
  }
}

// --- Capture ---------------------------------------------------------------

TEST_F(TelemetryTest, CapturePrefixFilterSelectsOnlyOwnNamespace) {
  auto& reg = MetricsRegistry::Global();
  reg.GetCounter("dist.worker.0.steps")->Increment(4);
  reg.GetCounter("dist.worker.1.steps")->Increment(9);
  reg.GetCounter("serve.requests")->Increment(100);
  reg.GetGauge("dist.worker.1.lr")->Set(0.125);

  TelemetryCaptureOptions cap;
  cap.metric_prefix = "dist.worker.1.";
  cap.include_events = false;
  const RankTelemetry unit =
      CaptureRankTelemetry(1, 0, 9, kTelemetryShipPeriodic, cap);
  EXPECT_EQ(unit.rank, 1);
  EXPECT_EQ(unit.step, 9);
  ASSERT_EQ(unit.metrics.counters.size(), 1u);
  EXPECT_EQ(unit.metrics.counters.at("dist.worker.1.steps"), 9u);
  ASSERT_EQ(unit.metrics.gauges.size(), 1u);
  EXPECT_TRUE(unit.events.empty());
}

TEST_F(TelemetryTest, CaptureEventsFromTicketShipsOnlyTheDelta) {
  auto& rec = FlightRecorder::Global();
  rec.Record(FlightEventType::kWorkerJoin, 0, 0, 0);      // ticket 0
  rec.Record(FlightEventType::kCheckpointSaved, 0, 5, 0);  // ticket 1
  rec.Record(FlightEventType::kTelemetryShip, 0, 5, 0);    // ticket 2

  TelemetryCaptureOptions cap;
  cap.include_events = true;
  cap.events_from_ticket = 1;
  const RankTelemetry unit =
      CaptureRankTelemetry(0, 0, 5, kTelemetryShipPeriodic, cap);
  ASSERT_EQ(unit.events.size(), 2u);
  EXPECT_EQ(unit.events[0].ticket, 1u);
  EXPECT_EQ(unit.events[1].ticket, 2u);
}

// --- Aggregator ------------------------------------------------------------

TEST_F(TelemetryTest, MergedCounterSumsNewestPerRank) {
  TelemetryAggregator agg;
  RankTelemetry r0 = MakeUnit(0, 0, 10);
  r0.metrics.counters["steps"] = 10;
  RankTelemetry r1 = MakeUnit(1, 0, 12);
  r1.metrics.counters["steps"] = 12;
  agg.Ingest(r0, 100);
  agg.Ingest(r1, 120);
  EXPECT_EQ(agg.MergedCounter("steps"), 22u);

  // Counters are cumulative: a newer unit replaces, never adds.
  RankTelemetry r0b = MakeUnit(0, 0, 20);
  r0b.metrics.counters["steps"] = 20;
  agg.Ingest(r0b, 100);
  EXPECT_EQ(agg.MergedCounter("steps"), 32u);
  EXPECT_EQ(agg.MergedCounter("no.such.counter"), 0u);
}

TEST_F(TelemetryTest, MergedHistogramFoldsBucketsAcrossRanks) {
  TelemetryAggregator agg;
  Histogram h0;
  h0.Record(2.0);
  h0.Record(2.0);
  Histogram h1;
  h1.Record(64.0);
  RankTelemetry r0 = MakeUnit(0, 0, 1);
  r0.metrics.histograms["step_ms"] = h0.Snapshot();
  RankTelemetry r1 = MakeUnit(1, 0, 1);
  r1.metrics.histograms["step_ms"] = h1.Snapshot();
  agg.Ingest(r0);
  agg.Ingest(r1);
  const HistogramSnapshot merged = agg.MergedHistogram("step_ms");
  EXPECT_EQ(merged.count, 3u);
  EXPECT_DOUBLE_EQ(merged.sum, 68.0);
  EXPECT_DOUBLE_EQ(merged.max, 64.0);
}

TEST_F(TelemetryTest, PerRankViewsAndAccounting) {
  TelemetryAggregator agg;
  EXPECT_FALSE(agg.HasRank(0));
  EXPECT_EQ(agg.RankStep(0), -1);

  RankTelemetry r0 = MakeUnit(0, 1, 33);
  r0.metrics.counters["dist.worker.0.comm_wait_ns"] = 4'000'000;
  r0.metrics.gauges["dist.worker.0.lr"] = 0.5;
  agg.Ingest(r0, 256);
  agg.Ingest(r0, 256);

  EXPECT_TRUE(agg.HasRank(0));
  EXPECT_FALSE(agg.HasRank(1));
  EXPECT_EQ(agg.RankStep(0), 33);
  EXPECT_EQ(agg.RankCounter(0, "dist.worker.0.comm_wait_ns"), 4'000'000u);
  EXPECT_EQ(agg.RankCounter(1, "dist.worker.0.comm_wait_ns"), 0u);
  EXPECT_DOUBLE_EQ(agg.RankGauge(0, "dist.worker.0.lr"), 0.5);
  EXPECT_EQ(agg.IngestedBytes(0), 512u);
  EXPECT_EQ(agg.IngestCount(0), 2);
  EXPECT_EQ(agg.IngestCount(1), 0);

  agg.Reset();
  EXPECT_FALSE(agg.HasRank(0));
  EXPECT_EQ(agg.IngestCount(0), 0);
}

TEST_F(TelemetryTest, TimelineOrdersByTimestampAndDedupes) {
  TelemetryAggregator agg;
  RankTelemetry r1 = MakeUnit(1, 0, 5);
  r1.events.push_back(
      MakeEvent(0, 300, FlightEventType::kTelemetryShip, 1, 5, 0));
  r1.events.push_back(
      MakeEvent(1, 500, FlightEventType::kPostmortemDump, 1, 5, 9));
  RankTelemetry r0 = MakeUnit(0, 0, 6);
  r0.events.push_back(
      MakeEvent(0, 400, FlightEventType::kCheckpointSaved, 0, 6, 0));
  agg.Ingest(r1);
  agg.Ingest(r0);
  // Coordinator detection lands after everything above.
  agg.IngestCoordinatorEvents(
      0, {MakeEvent(7, 600, FlightEventType::kWorkerDeath, 1, 5, 0)});

  std::vector<GangEvent> timeline = agg.Timeline();
  ASSERT_EQ(timeline.size(), 4u);
  EXPECT_EQ(timeline[0].event.ts_ns, 300);
  EXPECT_EQ(timeline[0].rank, 1);
  EXPECT_EQ(timeline[1].event.ts_ns, 400);
  EXPECT_EQ(timeline[1].rank, 0);
  EXPECT_EQ(timeline[2].event.ts_ns, 500);
  EXPECT_EQ(timeline[3].rank, kCoordinatorRank);
  EXPECT_EQ(timeline[3].event.type, FlightEventType::kWorkerDeath);

  // A postmortem that re-ships already-shipped events is harmless: the
  // (epoch, rank, ticket) key dedupes them.
  agg.Ingest(r1);
  EXPECT_EQ(agg.Timeline().size(), 4u);
  // Same ticket from a *new epoch* is a genuinely new event (respawned
  // rank's ring restarts at ticket 0).
  RankTelemetry respawned = MakeUnit(1, 1, 0);
  respawned.events.push_back(
      MakeEvent(0, 700, FlightEventType::kWorkerJoin, 1, 1, 0));
  agg.Ingest(respawned);
  EXPECT_EQ(agg.Timeline().size(), 5u);

  // max_events keeps the newest tail.
  std::vector<GangEvent> tail = agg.Timeline(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].event.ts_ns, 600);
  EXPECT_EQ(tail[1].event.ts_ns, 700);
}

TEST_F(TelemetryTest, FormatGangTimelineNamesRanksAndEvents) {
  std::vector<GangEvent> events;
  GangEvent dead;
  dead.rank = 1;
  dead.epoch = 0;
  dead.event = MakeEvent(4, 100, FlightEventType::kPostmortemDump, 1, 7, 9);
  GangEvent coord;
  coord.rank = kCoordinatorRank;
  coord.epoch = 0;
  coord.event = MakeEvent(9, 200, FlightEventType::kWorkerDeath, 1, 7, 0);
  events.push_back(dead);
  events.push_back(coord);

  const std::string text = FormatGangTimeline(events);
  EXPECT_NE(text.find("rank 1"), std::string::npos) << text;
  EXPECT_NE(text.find("coord"), std::string::npos) << text;
  EXPECT_NE(text.find(FlightEventTypeName(FlightEventType::kPostmortemDump)),
            std::string::npos)
      << text;
  EXPECT_NE(text.find(FlightEventTypeName(FlightEventType::kWorkerDeath)),
            std::string::npos)
      << text;
  EXPECT_TRUE(FormatGangTimeline({}).empty() ||
              FormatGangTimeline({}).find("rank") == std::string::npos);
}

// --- Postmortems -----------------------------------------------------------

TEST_F(TelemetryTest, PostmortemPathFormat) {
  EXPECT_EQ(PostmortemPath("/tmp/ckpt", 2), "/tmp/ckpt/postmortem_rank2.tfmr");
}

TEST_F(TelemetryTest, PostmortemRoundTripsThroughDisk) {
  const std::string dir = ScratchDir("roundtrip");
  const std::string path = PostmortemPath(dir, 1);

  RankTelemetry unit = MakeUnit(1, 2, 57);
  unit.reason = kTelemetryShipPostmortem;
  unit.metrics.counters["dist.worker.1.steps"] = 57;
  unit.events.push_back(
      MakeEvent(12, 900, FlightEventType::kPostmortemDump, 1, 57, 9));

  ASSERT_TRUE(WritePostmortem(path, unit).ok());
  // The tmp file must not linger after the rename.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  auto read = ReadPostmortem(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().rank, 1);
  EXPECT_EQ(read.value().step, 57);
  EXPECT_EQ(read.value().reason, kTelemetryShipPostmortem);
  ASSERT_EQ(read.value().events.size(), 1u);
  EXPECT_EQ(read.value().events[0].type, FlightEventType::kPostmortemDump);

  std::filesystem::remove_all(dir);
}

TEST_F(TelemetryTest, PostmortemReadReportsAbsentAndCorrupt) {
  const std::string dir = ScratchDir("corrupt");
  EXPECT_EQ(ReadPostmortem(PostmortemPath(dir, 0)).status().code(),
            util::StatusCode::kNotFound);

  // A torn last gasp: valid bytes, truncated mid-body.
  RankTelemetry unit = MakeUnit(0, 0, 3);
  unit.metrics.counters["x"] = 1;
  const std::vector<uint8_t> blob = EncodeRankTelemetry(unit);
  const std::string torn = PostmortemPath(dir, 0);
  {
    std::ofstream out(torn, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size() / 2));
  }
  EXPECT_EQ(ReadPostmortem(torn).status().code(),
            util::StatusCode::kInternal);

  // Garbage under the final name.
  const std::string garbage = PostmortemPath(dir, 1);
  {
    std::ofstream out(garbage, std::ios::binary | std::ios::trunc);
    out << "not a postmortem";
  }
  EXPECT_EQ(ReadPostmortem(garbage).status().code(),
            util::StatusCode::kInternal);

  std::filesystem::remove_all(dir);
}

// --- Incident reports ------------------------------------------------------

IncidentReport MakeReport() {
  IncidentReport report;
  report.epoch = 1;
  report.rank = 1;
  report.kind = "worker-death";
  report.detail = "killed by signal 9 (proc exit)";
  report.action = "respawn gang from checkpoint_00000050";
  report.step = 50;
  report.term_signal = 9;
  report.postmortem_harvested = true;
  report.recovery = 1;
  GangEvent ev;
  ev.rank = 1;
  ev.epoch = 1;
  ev.event = MakeEvent(3, 100, FlightEventType::kPostmortemDump, 1, 50, 9);
  report.timeline.push_back(ev);
  return report;
}

TEST_F(TelemetryTest, IncidentReportJsonHasStableMachineReadableKeys) {
  const std::string json = MakeReport().ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  for (const char* key :
       {"\"epoch\":", "\"rank\":", "\"kind\":", "\"detail\":", "\"action\":",
        "\"step\":", "\"exit_code\":", "\"term_signal\":",
        "\"postmortem\":true", "\"recovery\":", "\"timeline\":["}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing: " << json;
  }
  EXPECT_NE(json.find("\"worker-death\""), std::string::npos);
  EXPECT_NE(json.find("\"term_signal\":9"), std::string::npos);
  // detail contains characters that need escaping in no case here, but the
  // JSON must never contain a raw newline.
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST_F(TelemetryTest, IncidentReportFormatReadsLikeAPostmortem) {
  const std::string text = MakeReport().Format();
  EXPECT_NE(text.find("worker-death"), std::string::npos) << text;
  EXPECT_NE(text.find("killed by signal 9"), std::string::npos) << text;
  EXPECT_NE(text.find("respawn gang"), std::string::npos) << text;
  EXPECT_NE(text.find(FlightEventTypeName(FlightEventType::kPostmortemDump)),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("rank 1"), std::string::npos) << text;
}

}  // namespace
}  // namespace llm::obs
