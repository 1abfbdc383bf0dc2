#include "obs/telemetry.h"

#include <algorithm>
#include <cstdio>

#include "util/bytes.h"
#include "util/crc32.h"

namespace llm::obs {
namespace {

// "TFMT": same family as the wire's "TFMW", distinct so a telemetry blob
// mistaken for a frame (or vice versa) fails fast on magic.
constexpr uint32_t kTelemetryMagic = 0x54464D54u;
constexpr uint16_t kTelemetryVersion = 1;

// Sanity bounds for the decoder: anything larger is a corrupt stream,
// not a plausible snapshot.
constexpr uint32_t kMaxEntries = 1u << 20;
constexpr uint32_t kMaxNameLen = 1u << 12;
constexpr uint32_t kMaxBuckets = 1u << 10;

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Display order of the merged timeline: machine-wide steady timestamp,
/// then (epoch, rank, ticket) so identical-timestamp events (coarse
/// clocks, same-instant records on different ranks) order
/// deterministically.
bool GangEventBefore(const GangEvent& x, const GangEvent& y) {
  if (x.event.ts_ns != y.event.ts_ns) return x.event.ts_ns < y.event.ts_ns;
  if (x.epoch != y.epoch) return x.epoch < y.epoch;
  if (x.rank != y.rank) return x.rank < y.rank;
  return x.event.ticket < y.event.ticket;
}

}  // namespace

// ---------------------------------------------------------------------------
// Codec.
// ---------------------------------------------------------------------------

std::vector<uint8_t> EncodeRankTelemetry(const RankTelemetry& telemetry) {
  util::ByteWriter w;
  w.Put(kTelemetryMagic);
  w.Put(kTelemetryVersion);
  w.Put(uint16_t{0});  // reserved
  w.Put(telemetry.rank);
  w.Put(telemetry.epoch);
  w.Put(telemetry.step);
  w.Put(telemetry.reason);

  w.Put(static_cast<uint32_t>(telemetry.metrics.counters.size()));
  for (const auto& [name, value] : telemetry.metrics.counters) {
    w.String(name);
    w.Put(value);
  }
  w.Put(static_cast<uint32_t>(telemetry.metrics.gauges.size()));
  for (const auto& [name, value] : telemetry.metrics.gauges) {
    w.String(name);
    w.Put(value);
  }
  w.Put(static_cast<uint32_t>(telemetry.metrics.histograms.size()));
  for (const auto& [name, snapshot] : telemetry.metrics.histograms) {
    w.String(name);
    w.Put(snapshot.count);
    w.Put(snapshot.sum);
    w.Put(snapshot.max);
    w.Put(static_cast<uint32_t>(snapshot.buckets.size()));
    w.Bytes(snapshot.buckets.data(),
            snapshot.buckets.size() * sizeof(uint64_t));
  }
  w.Put(static_cast<uint32_t>(telemetry.events.size()));
  for (const FlightEvent& event : telemetry.events) {
    w.Put(event.ticket);
    w.Put(event.ts_ns);
    w.Put(static_cast<uint32_t>(event.type));
    w.Put(event.a);
    w.Put(event.b);
    w.Put(event.c);
  }
  w.Put(util::Crc32(w.bytes().data(), w.bytes().size()));
  return w.Take();
}

util::StatusOr<RankTelemetry> DecodeRankTelemetry(const uint8_t* data,
                                                  size_t len) {
  if (len < 4 + 4) {
    return util::Status::Internal("telemetry blob truncated (" +
                                  std::to_string(len) + " bytes)");
  }
  // CRC first: everything after this can trust the bytes.
  uint32_t stored_crc = 0;
  util::ByteReader({data + len - 4, 4}).Get(&stored_crc);
  if (util::Crc32(data, len - 4) != stored_crc) {
    return util::Status::Internal("telemetry blob failed its CRC");
  }

  util::ByteReader r({data, len - 4});
  uint32_t magic = 0;
  uint16_t version = 0, reserved = 0;
  RankTelemetry t;
  if (!r.Get(&magic) || magic != kTelemetryMagic) {
    return util::Status::Internal("telemetry blob has bad magic");
  }
  if (!r.Get(&version) || version != kTelemetryVersion ||
      !r.Get(&reserved)) {
    return util::Status::Internal("telemetry blob has unsupported version");
  }
  if (!r.Get(&t.rank) || !r.Get(&t.epoch) || !r.Get(&t.step) ||
      !r.Get(&t.reason)) {
    return util::Status::Internal("telemetry blob truncated in header");
  }

  uint32_t n = 0;
  if (!r.Get(&n) || n > kMaxEntries) {
    return util::Status::Internal("telemetry blob has a bad counter count");
  }
  for (uint32_t i = 0; i < n; ++i) {
    std::string name;
    uint64_t value = 0;
    if (!r.String(&name, kMaxNameLen) || !r.Get(&value)) {
      return util::Status::Internal("telemetry blob truncated in counters");
    }
    t.metrics.counters[name] = value;
  }
  if (!r.Get(&n) || n > kMaxEntries) {
    return util::Status::Internal("telemetry blob has a bad gauge count");
  }
  for (uint32_t i = 0; i < n; ++i) {
    std::string name;
    double value = 0.0;
    if (!r.String(&name, kMaxNameLen) || !r.Get(&value)) {
      return util::Status::Internal("telemetry blob truncated in gauges");
    }
    t.metrics.gauges[name] = value;
  }
  if (!r.Get(&n) || n > kMaxEntries) {
    return util::Status::Internal("telemetry blob has a bad histogram count");
  }
  for (uint32_t i = 0; i < n; ++i) {
    std::string name;
    HistogramSnapshot snapshot;
    uint32_t n_buckets = 0;
    if (!r.String(&name, kMaxNameLen) || !r.Get(&snapshot.count) ||
        !r.Get(&snapshot.sum) || !r.Get(&snapshot.max) ||
        !r.Get(&n_buckets) || n_buckets > kMaxBuckets) {
      return util::Status::Internal("telemetry blob truncated in histograms");
    }
    snapshot.buckets.resize(n_buckets);
    if (!r.Bytes(snapshot.buckets.data(), n_buckets * sizeof(uint64_t))) {
      return util::Status::Internal(
          "telemetry blob truncated in histogram buckets");
    }
    t.metrics.histograms[name] = std::move(snapshot);
  }
  if (!r.Get(&n) || n > kMaxEntries) {
    return util::Status::Internal("telemetry blob has a bad event count");
  }
  for (uint32_t i = 0; i < n; ++i) {
    FlightEvent event;
    uint32_t type = 0;
    if (!r.Get(&event.ticket) || !r.Get(&event.ts_ns) || !r.Get(&type) ||
        !r.Get(&event.a) || !r.Get(&event.b) || !r.Get(&event.c)) {
      return util::Status::Internal("telemetry blob truncated in events");
    }
    event.type = static_cast<FlightEventType>(type);
    t.events.push_back(event);
  }
  if (r.remaining() != 0) {
    return util::Status::Internal("telemetry blob has trailing bytes");
  }
  return t;
}

util::StatusOr<RankTelemetry> DecodeRankTelemetry(
    const std::vector<uint8_t>& bytes) {
  return DecodeRankTelemetry(bytes.data(), bytes.size());
}

// ---------------------------------------------------------------------------
// Capture.
// ---------------------------------------------------------------------------

RankTelemetry CaptureRankTelemetry(int32_t rank, int64_t epoch, int64_t step,
                                   int32_t reason,
                                   const TelemetryCaptureOptions& options) {
  RankTelemetry t;
  t.rank = rank;
  t.epoch = epoch;
  t.step = step;
  t.reason = reason;
  t.metrics = MetricsRegistry::Global().Snapshot(options.metric_prefix);
  if (options.include_events) {
    t.events = FlightRecorder::Global().DumpSince(options.events_from_ticket);
  }
  return t;
}

// ---------------------------------------------------------------------------
// Gang timeline + aggregation.
// ---------------------------------------------------------------------------

std::string FormatGangTimeline(const std::vector<GangEvent>& events) {
  if (events.empty()) return "  (gang timeline empty)\n";
  const int64_t newest = events.back().event.ts_ns;
  std::string out;
  char line[224];
  for (const GangEvent& ge : events) {
    char who[16];
    if (ge.rank == kCoordinatorRank) {
      std::snprintf(who, sizeof(who), "coord");
    } else {
      std::snprintf(who, sizeof(who), "rank %d", ge.rank);
    }
    std::snprintf(line, sizeof(line),
                  "  [%9.2fms] %-7s e%lld #%-6llu %-20s a=%d b=%lld c=%lld\n",
                  static_cast<double>(ge.event.ts_ns - newest) / 1e6, who,
                  static_cast<long long>(ge.epoch),
                  static_cast<unsigned long long>(ge.event.ticket),
                  FlightEventTypeName(ge.event.type), ge.event.a,
                  static_cast<long long>(ge.event.b),
                  static_cast<long long>(ge.event.c));
    out += line;
  }
  return out;
}

void TelemetryAggregator::Ingest(const RankTelemetry& telemetry,
                                 size_t wire_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  bytes_[telemetry.rank] += wire_bytes;
  ++ingests_[telemetry.rank];
  for (const FlightEvent& event : telemetry.events) {
    if (seen_
            .insert({telemetry.epoch, telemetry.rank, event.ticket})
            .second) {
      timeline_.push_back({telemetry.rank, telemetry.epoch, event});
    }
  }
  latest_[telemetry.rank] = telemetry;
}

void TelemetryAggregator::IngestCoordinatorEvents(
    int64_t epoch, const std::vector<FlightEvent>& events) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const FlightEvent& event : events) {
    if (seen_.insert({epoch, kCoordinatorRank, event.ticket}).second) {
      timeline_.push_back({kCoordinatorRank, epoch, event});
    }
  }
}

uint64_t TelemetryAggregator::MergedCounter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t sum = 0;
  for (const auto& [rank, t] : latest_) {
    const auto it = t.metrics.counters.find(name);
    if (it != t.metrics.counters.end()) sum += it->second;
  }
  return sum;
}

HistogramSnapshot TelemetryAggregator::MergedHistogram(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  HistogramSnapshot merged;
  for (const auto& [rank, t] : latest_) {
    const auto it = t.metrics.histograms.find(name);
    if (it != t.metrics.histograms.end()) merged.Merge(it->second);
  }
  return merged;
}

uint64_t TelemetryAggregator::RankCounter(int32_t rank,
                                          const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto rit = latest_.find(rank);
  if (rit == latest_.end()) return 0;
  const auto it = rit->second.metrics.counters.find(name);
  return it == rit->second.metrics.counters.end() ? 0 : it->second;
}

double TelemetryAggregator::RankGauge(int32_t rank,
                                      const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto rit = latest_.find(rank);
  if (rit == latest_.end()) return 0.0;
  const auto it = rit->second.metrics.gauges.find(name);
  return it == rit->second.metrics.gauges.end() ? 0.0 : it->second;
}

bool TelemetryAggregator::HasRank(int32_t rank) const {
  std::lock_guard<std::mutex> lock(mu_);
  return latest_.count(rank) != 0;
}

int64_t TelemetryAggregator::RankStep(int32_t rank) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = latest_.find(rank);
  return it == latest_.end() ? -1 : it->second.step;
}

uint64_t TelemetryAggregator::IngestedBytes(int32_t rank) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = bytes_.find(rank);
  return it == bytes_.end() ? 0 : it->second;
}

int64_t TelemetryAggregator::IngestCount(int32_t rank) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = ingests_.find(rank);
  return it == ingests_.end() ? 0 : it->second;
}

std::vector<GangEvent> TelemetryAggregator::Timeline(
    size_t max_events) const {
  std::vector<GangEvent> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = timeline_;
  }
  std::sort(out.begin(), out.end(), GangEventBefore);
  if (out.size() > max_events) {
    out.erase(out.begin(), out.end() - static_cast<ptrdiff_t>(max_events));
  }
  return out;
}

void TelemetryAggregator::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  latest_.clear();
  bytes_.clear();
  ingests_.clear();
  timeline_.clear();
  seen_.clear();
}

// ---------------------------------------------------------------------------
// Crash postmortems.
// ---------------------------------------------------------------------------

std::string PostmortemPath(const std::string& dir, int32_t rank) {
  return dir + "/postmortem_rank" + std::to_string(rank) + ".tfmr";
}

util::Status WritePostmortem(const std::string& path,
                             const RankTelemetry& telemetry) {
  return util::ReplaceFile(path, EncodeRankTelemetry(telemetry));
}

util::StatusOr<RankTelemetry> ReadPostmortem(const std::string& path) {
  LLM_ASSIGN_OR_RETURN(const std::vector<uint8_t> bytes,
                       util::ReadFile(path));
  auto decoded = DecodeRankTelemetry(bytes);
  if (!decoded.ok()) {
    return util::Status::Internal("postmortem " + path + " is corrupt: " +
                                  decoded.status().ToString());
  }
  return decoded;
}

// ---------------------------------------------------------------------------
// Incident reports.
// ---------------------------------------------------------------------------

std::string IncidentReport::ToJson() const {
  std::string out = "{";
  out += "\"epoch\":" + std::to_string(epoch);
  out += ",\"rank\":" + std::to_string(rank);
  out += ",\"kind\":\"" + JsonEscape(kind) + "\"";
  out += ",\"detail\":\"" + JsonEscape(detail) + "\"";
  out += ",\"action\":\"" + JsonEscape(action) + "\"";
  out += ",\"step\":" + std::to_string(step);
  out += ",\"exit_code\":" + std::to_string(exit_code);
  out += ",\"term_signal\":" + std::to_string(term_signal);
  out += ",\"postmortem\":";
  out += postmortem_harvested ? "true" : "false";
  out += ",\"recovery\":" + std::to_string(recovery);
  out += ",\"timeline\":[";
  const int64_t newest =
      timeline.empty() ? 0 : timeline.back().event.ts_ns;
  bool first = true;
  for (const GangEvent& ge : timeline) {
    if (!first) out += ",";
    first = false;
    char buf[192];
    std::snprintf(
        buf, sizeof(buf),
        "{\"rank\":%d,\"epoch\":%lld,\"ticket\":%llu,\"t_ms\":%.3f,"
        "\"event\":\"%s\",\"a\":%d,\"b\":%lld,\"c\":%lld}",
        ge.rank, static_cast<long long>(ge.epoch),
        static_cast<unsigned long long>(ge.event.ticket),
        static_cast<double>(ge.event.ts_ns - newest) / 1e6,
        FlightEventTypeName(ge.event.type), ge.event.a,
        static_cast<long long>(ge.event.b),
        static_cast<long long>(ge.event.c));
    out += buf;
  }
  out += "]}";
  return out;
}

std::string IncidentReport::Format() const {
  std::string out;
  out += "incident: epoch " + std::to_string(epoch) + " rank " +
         std::to_string(rank) + " [" + kind + "]\n";
  out += "  detail: " + detail + "\n";
  out += "  action: " + action + "\n";
  out += "  victim last telemetry step: " + std::to_string(step) + "\n";
  if (term_signal >= 0) {
    out += "  terminated by signal " + std::to_string(term_signal) + "\n";
  } else if (exit_code >= 0) {
    out += "  exit code " + std::to_string(exit_code) + "\n";
  }
  out += std::string("  postmortem: ") +
         (postmortem_harvested ? "harvested" : "none") + "\n";
  out += "  gang timeline (newest last):\n";
  out += FormatGangTimeline(timeline);
  return out;
}

}  // namespace llm::obs
