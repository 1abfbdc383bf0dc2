// Gang-wide telemetry plane: rank-tagged metric snapshots and flight
// deltas, merged on the coordinator into one timeline, plus the crash
// postmortem file format and the structured incident report.
//
// PR 9 moved distributed training onto real worker processes, which
// trapped each rank's MetricsRegistry and FlightRecorder inside its own
// address space — and they vanish on SIGKILL, exactly when they matter
// most. This header is the cure, in three parts:
//
//   RankTelemetry         one rank's shipped unit: a RegistrySnapshot of
//                         its metrics plus the FlightRecorder delta since
//                         its last ship, stamped (rank, epoch, step).
//                         EncodeRankTelemetry/DecodeRankTelemetry turn it
//                         into CRC-guarded bytes; the dist wire carries
//                         them as an opaque payload (obs stays below
//                         train in the layer order, so the codec lives
//                         here and the frame type lives in dist/wire.h).
//
//   TelemetryAggregator   coordinator-side sink. Keeps each rank's
//                         newest snapshot (counters are cumulative, so
//                         "latest" is "total"), sums counters and merges
//                         histograms across ranks (HistogramSnapshot::
//                         Merge), and splices every rank's flight events
//                         into one gang timeline. Events are deduped by
//                         (epoch, rank, ticket) — the per-rank ticket is
//                         monotonic within a spawn generation — and
//                         ordered for display by steady-clock timestamp,
//                         which is machine-wide comparable across the
//                         gang's processes (see flight_recorder.h's
//                         clock contract), with (rank, ticket) breaking
//                         ties. Coordinator-side events ride in the same
//                         timeline under rank kCoordinatorRank (-1).
//
//   Postmortem + IncidentReport   the crash pipeline. A dying worker
//                         atomically dumps its RankTelemetry to a
//                         per-rank file (WritePostmortem: tmp + rename,
//                         CRC-checked on read so a torn last gasp is
//                         detected, not trusted); the coordinator
//                         harvests those files on every incident and
//                         emits an IncidentReport — what died, why the
//                         monitor noticed, every rank's last events
//                         around the incident, and the recovery action —
//                         renderable as text (Format) or as one
//                         machine-parsable DIST_INCIDENT JSON line
//                         (ToJson).
#ifndef TFMR_OBS_TELEMETRY_H_
#define TFMR_OBS_TELEMETRY_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace llm::obs {

/// Why a telemetry unit was shipped (RankTelemetry::reason).
inline constexpr int32_t kTelemetryShipPeriodic = 0;
inline constexpr int32_t kTelemetryShipFinal = 1;
inline constexpr int32_t kTelemetryShipPostmortem = 2;

/// The rank id coordinator-originated timeline events carry.
inline constexpr int32_t kCoordinatorRank = -1;

/// One rank's shipped telemetry unit.
struct RankTelemetry {
  int32_t rank = -1;
  int64_t epoch = 0;
  /// The rank's step at capture time.
  int64_t step = 0;
  int32_t reason = kTelemetryShipPeriodic;
  RegistrySnapshot metrics;
  /// FlightRecorder delta since the previous ship (full ring for a
  /// postmortem). Empty when the shipper shares the coordinator's
  /// process and recorder (thread transport).
  std::vector<FlightEvent> events;
};

// ---------------------------------------------------------------------------
// Codec. Little-endian (util/bytes.h), magic + version framed, trailing
// CRC32 over the whole body so a torn postmortem or corrupt frame payload
// is detected, never half-trusted.
// ---------------------------------------------------------------------------

std::vector<uint8_t> EncodeRankTelemetry(const RankTelemetry& telemetry);
util::StatusOr<RankTelemetry> DecodeRankTelemetry(const uint8_t* data,
                                                  size_t len);
util::StatusOr<RankTelemetry> DecodeRankTelemetry(
    const std::vector<uint8_t>& bytes);

// ---------------------------------------------------------------------------
// Capture.
// ---------------------------------------------------------------------------

struct TelemetryCaptureOptions {
  /// Only metrics whose name starts with this ship ("" = every metric).
  /// A worker that shares the coordinator's process must restrict itself
  /// to its own per-rank namespace ("dist.worker.<r>.") or the
  /// aggregator's cross-rank sums would multiply-count shared globals.
  std::string metric_prefix;
  /// Whether to ship a FlightRecorder delta. Off for shared-process
  /// workers (the coordinator already owns the ring; re-shipping it
  /// rank-tagged would misattribute events).
  bool include_events = true;
  /// Delta start: ship events with ticket >= this.
  uint64_t events_from_ticket = 0;
};

/// Snapshots the global MetricsRegistry and (optionally) the global
/// FlightRecorder into a shippable unit.
RankTelemetry CaptureRankTelemetry(int32_t rank, int64_t epoch, int64_t step,
                                   int32_t reason,
                                   const TelemetryCaptureOptions& options);

// ---------------------------------------------------------------------------
// Gang timeline + aggregation.
// ---------------------------------------------------------------------------

/// One event in the merged gang timeline: a FlightEvent tagged with the
/// rank (kCoordinatorRank for the coordinator) and spawn epoch it came
/// from.
struct GangEvent {
  int32_t rank = kCoordinatorRank;
  int64_t epoch = 0;
  FlightEvent event;
};

/// Human-readable gang timeline, one event per line, timestamps relative
/// to the newest event, rank column first ("coord" for the coordinator).
std::string FormatGangTimeline(const std::vector<GangEvent>& events);

/// Coordinator-side aggregator. Thread-safe: the transport's reader
/// threads Ingest while the monitor reads merged views.
class TelemetryAggregator {
 public:
  TelemetryAggregator() = default;
  TelemetryAggregator(const TelemetryAggregator&) = delete;
  TelemetryAggregator& operator=(const TelemetryAggregator&) = delete;

  /// Folds one shipped unit in: replaces the rank's latest snapshot and
  /// splices its events into the timeline (deduped by (epoch, rank,
  /// ticket), so a postmortem that re-ships already-shipped events is
  /// harmless). `wire_bytes` is the encoded size for the ingest-side
  /// byte accounting (0 if unknown).
  void Ingest(const RankTelemetry& telemetry, size_t wire_bytes = 0);

  /// Splices coordinator-local flight events (detection, recovery,
  /// respawn) into the timeline under kCoordinatorRank.
  void IngestCoordinatorEvents(int64_t epoch,
                               const std::vector<FlightEvent>& events);

  /// Sum of the newest per-rank values of counter `name`. Counters are
  /// cumulative per rank, so latest == per-rank total and the sum is the
  /// gang total.
  uint64_t MergedCounter(const std::string& name) const;
  /// Bucket-merged histogram `name` across every rank's newest snapshot.
  HistogramSnapshot MergedHistogram(const std::string& name) const;

  /// Newest shipped value of a single rank's counter/gauge; 0 when that
  /// rank never shipped the metric.
  uint64_t RankCounter(int32_t rank, const std::string& name) const;
  double RankGauge(int32_t rank, const std::string& name) const;

  /// True once `rank` has shipped at least one unit.
  bool HasRank(int32_t rank) const;
  /// The step stamped on `rank`'s newest unit (-1 if never shipped).
  int64_t RankStep(int32_t rank) const;
  /// Encoded bytes ingested from `rank` (coordinator-side accounting).
  uint64_t IngestedBytes(int32_t rank) const;
  /// Units ingested from `rank`.
  int64_t IngestCount(int32_t rank) const;

  /// The merged timeline, ordered by steady timestamp with (rank,
  /// ticket) tie-break, trimmed to the newest `max_events`.
  std::vector<GangEvent> Timeline(size_t max_events = SIZE_MAX) const;

  /// Drops everything (tests and bench stage boundaries).
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<int32_t, RankTelemetry> latest_;     // newest unit per rank
  std::map<int32_t, uint64_t> bytes_;           // guarded by mu_
  std::map<int32_t, int64_t> ingests_;          // guarded by mu_
  std::vector<GangEvent> timeline_;             // guarded by mu_
  /// Dedup keys: (epoch, rank, ticket). Tickets restart at 0 when a rank
  /// respawns, but respawn bumps the epoch, so the triple stays unique.
  std::set<std::tuple<int64_t, int32_t, uint64_t>> seen_;
};

// ---------------------------------------------------------------------------
// Crash postmortems.
// ---------------------------------------------------------------------------

/// Canonical per-rank postmortem path: "<dir>/postmortem_rank<r>.tfmr".
std::string PostmortemPath(const std::string& dir, int32_t rank);

/// Atomically dumps `telemetry` to `path`: encoded bytes are written to
/// "<path>.tmp" and renamed into place, so a reader never sees a torn
/// file under the final name (and the trailing CRC catches a torn tmp
/// that somehow got renamed). util::ReplaceFile uses only open, write,
/// close and rename; safe from a last-gasp fatal-signal handler in the
/// pragmatic crash-reporter sense (the encoder allocates, which strict
/// async-signal-safety forbids, but the process is already dead either
/// way — same trade every production crash dumper makes).
util::Status WritePostmortem(const std::string& path,
                             const RankTelemetry& telemetry);

/// Reads + validates a postmortem. NotFound when absent; Internal on a
/// torn or corrupt file.
util::StatusOr<RankTelemetry> ReadPostmortem(const std::string& path);

// ---------------------------------------------------------------------------
// Incident reports.
// ---------------------------------------------------------------------------

/// Everything the coordinator knows about one gang incident, assembled
/// from the monitor's verdict, the harvested postmortems, and the merged
/// timeline around the moment of death.
struct IncidentReport {
  int64_t epoch = 0;
  int32_t rank = -1;        // the victim
  std::string kind;         // "worker-death", "worker-stall",
                            // "transport-disconnect", "worker-exit", ...
  std::string detail;       // why the monitor noticed
  std::string action;       // what recovery did
  int64_t step = -1;        // victim's last telemetry-reported step
  int32_t exit_code = -1;   // wait-status exit code (-1 unknown/signal)
  int32_t term_signal = -1; // terminating signal (-1 if exited)
  bool postmortem_harvested = false;
  int32_t recovery = 0;     // recovery index this incident triggered
  /// The merged gang timeline around the incident: the victim's final
  /// shipped/postmortem events interleaved with the coordinator's
  /// detection and recovery events.
  std::vector<GangEvent> timeline;

  /// One JSON object (no trailing newline), stable key order.
  std::string ToJson() const;
  /// Multi-line human rendering, timeline included.
  std::string Format() const;
};

}  // namespace llm::obs

#endif  // TFMR_OBS_TELEMETRY_H_
