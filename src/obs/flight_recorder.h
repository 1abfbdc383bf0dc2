// Lock-free flight recorder: a bounded ring of recent runtime events,
// dumpable on demand or on failure.
//
// The serving and training runtimes append low-frequency lifecycle events
// (admissions, retirements, injected faults, breaker transitions, reload
// phases, divergence rollbacks, watchdog stalls) as they happen; when
// something goes wrong, Dump() reconstructs "what was the system doing in
// the seconds before" without rerunning under logging.
//
// Concurrency: Record is lock-free and never blocks — one relaxed
// fetch_add takes a ticket, and a CAS on the ticket's slot claims it, so
// a slot has at most one writer at a time. A per-slot sequence number
// (seqlock discipline: odd while its writer stores, even when published,
// ticket-encoded) lets Dump detect and skip slots that are mid-write or
// were lapped while being read. A writer drops its event when the slot
// already holds a newer ticket, or when another writer still holds it
// after a bounded number of re-reads (Record may run in a signal handler
// that interrupted a Record on its own thread). Racing producers and a
// concurrent dumper are TSan-clean because every shared field is atomic.
// Events whose slot was overwritten before the dump are simply gone —
// the recorder keeps at most the newest `capacity` events.
#ifndef TFMR_OBS_FLIGHT_RECORDER_H_
#define TFMR_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace llm::obs {

/// Keep in sync with FlightEventTypeName().
enum class FlightEventType : int32_t {
  kAdmission = 0,      // a=KV slot, b=request id
  kRetirement,         // a=FinishReason, b=request id, c=tokens generated
  kFaultInjected,      // a=util::FaultSite, b=occurrence index
  kBreakerTransition,  // a=replica, b=from BreakerState, c=to BreakerState
  kReloadPhase,        // a=replica, b=ReloadPhase, c=1 ok / 0 failed
  kStallDetected,      // a=victim count, b=elapsed ms
  kLeakRepaired,       // a=slots repaired
  kDispatch,           // a=replica, b=fleet request id, c=1 if hedge
  kFailover,           // a=replica (new), b=fleet request id, c=attempt #
  kHedgeLaunch,        // a=replica, b=fleet request id
  kTrainDivergence,    // a=kind (0 nan-loss, 1 grad-explosion), b=step
  kTrainRollback,      // a=1 rollback / 0 skip-step, b=resume step
  kCheckpointSaved,    // b=step
  kDrainBegin,         // (server or fleet)
  kWorkerJoin,         // dist: a=rank, b=epoch, c=start step
  kWorkerDeath,        // dist: a=rank, b=step, c=reason (0 kill, 1 stall,
                       //       2 collective failure)
  kDistRecovery,       // dist: a=new epoch, b=resume step, c=recovery #
  kCollectiveAbort,    // dist: a=rank, b=sequence, c=reason (0 timeout,
                       //       1 corrupt payload, 2 epoch abort)
  kQuotaExhausted,     // a=TenantClass, b=request id, c=tokens requested
  kShed,               // a=TenantClass (victim), b=request id,
                       //   c=incoming TenantClass
  kPreempt,            // a=incoming TenantClass, b=victim request id,
                       //   c=victim tokens generated
  kTransportConnect,   // dist: a=rank, b=epoch, c=0 first / 1 reconnect
  kTransportDisconnect,// dist: a=rank, b=epoch, c=0 clean / 1 dirty
  kTransportFence,     // dist: a=rank, b=stale epoch, c=current epoch
  kProcSpawn,          // dist: a=rank, b=pid, c=epoch
  kTelemetryShip,      // dist: a=rank, b=step, c=reason (0 periodic,
                       //       1 final, 2 postmortem)
  kPostmortemDump,     // dist: a=rank, b=step, c=signal (0 = not a signal)
  kIncidentReport,     // dist: a=victim rank, b=epoch, c=recovery #
};

const char* FlightEventTypeName(FlightEventType type);

/// One recorded event. `ticket` is the global record index (monotonic),
/// which orders events exactly within one recorder.
///
/// Clock contract: `ts_ns` MUST come from std::chrono::steady_clock — a
/// monotonic source that never steps backwards under NTP slews or
/// wall-clock adjustments — so a merged multi-rank timeline can never
/// reorder across a system-clock step. On Linux steady_clock is
/// CLOCK_MONOTONIC, whose epoch (boot) is shared by every process on the
/// machine, which is what makes timestamps from different worker
/// processes on one box directly comparable when the telemetry plane
/// (obs/telemetry.h) merges their events into a gang timeline.
struct FlightEvent {
  uint64_t ticket = 0;
  int64_t ts_ns = 0;
  FlightEventType type = FlightEventType::kAdmission;
  int32_t a = 0;
  int64_t b = 0;
  int64_t c = 0;
};

class FlightRecorder {
 public:
  /// `capacity` is rounded up to a power of two.
  explicit FlightRecorder(size_t capacity = 4096);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The process-wide recorder every runtime component appends to.
  static FlightRecorder& Global();

  /// Appends one event (or drops it, see above). Never blocks; a no-op
  /// while disabled.
  void Record(FlightEventType type, int32_t a = 0, int64_t b = 0,
              int64_t c = 0);

  /// Recording on/off (default on). One relaxed load on the record path.
  void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Events ever recorded (including ones the ring has since dropped).
  uint64_t total_recorded() const {
    return next_.load(std::memory_order_relaxed);
  }

  /// Snapshot of the newest events, oldest first, at most `max_events`.
  /// Safe concurrently with writers: slots being written (or lapped
  /// mid-read) are skipped rather than returned torn.
  std::vector<FlightEvent> Dump(size_t max_events = SIZE_MAX) const;

  /// Dump restricted to events with ticket >= `min_ticket`: the
  /// incremental-delta primitive the telemetry shipper uses ("everything
  /// since my last ship"). Same concurrency contract as Dump; events
  /// older than min_ticket that still sit in the ring are filtered out,
  /// and events that were lapped are simply gone.
  std::vector<FlightEvent> DumpSince(uint64_t min_ticket,
                                     size_t max_events = SIZE_MAX) const;

  /// Human-readable dump, newest `max_events` events, one per line with
  /// timestamps relative to the newest event.
  std::string Format(size_t max_events = 32) const;

  /// Zeroes the ring and the ticket counter. Callers must ensure no
  /// concurrent Record (test/bench boundaries only).
  void Clear();

  size_t capacity() const { return mask_ + 1; }

 private:
  struct Slot {
    std::atomic<uint64_t> seq{0};  // 0 empty; odd writing; even => ticket
    std::atomic<int64_t> ts_ns{0};
    std::atomic<int64_t> type_a{0};  // type in high 32 bits, a in low 32
    std::atomic<int64_t> b{0};
    std::atomic<int64_t> c{0};
  };

  size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> next_{0};
  std::atomic<bool> enabled_{true};
};

}  // namespace llm::obs

#endif  // TFMR_OBS_FLIGHT_RECORDER_H_
