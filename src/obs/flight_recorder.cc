#include "obs/flight_recorder.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace llm::obs {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// How many times Record re-reads a slot that another writer holds before
// it drops its event. Record may run in a fatal-signal handler that
// interrupted a Record on the same thread, so it must never wait for the
// holder without bound.
constexpr int kClaimTries = 1024;

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

const char* FlightEventTypeName(FlightEventType type) {
  switch (type) {
    case FlightEventType::kAdmission: return "admission";
    case FlightEventType::kRetirement: return "retirement";
    case FlightEventType::kFaultInjected: return "fault-injected";
    case FlightEventType::kBreakerTransition: return "breaker-transition";
    case FlightEventType::kReloadPhase: return "reload-phase";
    case FlightEventType::kStallDetected: return "stall-detected";
    case FlightEventType::kLeakRepaired: return "leak-repaired";
    case FlightEventType::kDispatch: return "dispatch";
    case FlightEventType::kFailover: return "failover";
    case FlightEventType::kHedgeLaunch: return "hedge-launch";
    case FlightEventType::kTrainDivergence: return "train-divergence";
    case FlightEventType::kTrainRollback: return "train-rollback";
    case FlightEventType::kCheckpointSaved: return "checkpoint-saved";
    case FlightEventType::kDrainBegin: return "drain-begin";
    case FlightEventType::kWorkerJoin: return "worker-join";
    case FlightEventType::kWorkerDeath: return "worker-death";
    case FlightEventType::kDistRecovery: return "dist-recovery";
    case FlightEventType::kCollectiveAbort: return "collective-abort";
    case FlightEventType::kQuotaExhausted: return "quota-exhausted";
    case FlightEventType::kShed: return "shed";
    case FlightEventType::kPreempt: return "preempt";
    case FlightEventType::kTransportConnect: return "transport-connect";
    case FlightEventType::kTransportDisconnect:
      return "transport-disconnect";
    case FlightEventType::kTransportFence: return "transport-fence";
    case FlightEventType::kProcSpawn: return "proc-spawn";
    case FlightEventType::kTelemetryShip: return "telemetry-ship";
    case FlightEventType::kPostmortemDump: return "postmortem-dump";
    case FlightEventType::kIncidentReport: return "incident-report";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(size_t capacity)
    : mask_(RoundUpPow2(std::max<size_t>(capacity, 2)) - 1),
      slots_(new Slot[mask_ + 1]) {}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* instance = new FlightRecorder();
  return *instance;
}

void FlightRecorder::Record(FlightEventType type, int32_t a, int64_t b,
                            int64_t c) {
  if (!enabled()) return;
  const uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket & mask_];
  // Seqlock with one writer per slot: claim it by moving `seq` from even
  // (empty or published) to this ticket's odd value; the even publish
  // value encodes the ticket, so a reader can both validate the payload
  // and order it. A slot already holding a newer ticket means the ring
  // lapped this event before it was written: drop it.
  const uint64_t writing = 2 * ticket + 1;
  uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  for (int tries = 0;; ++tries) {
    if (seq > writing || tries == kClaimTries) return;
    if (seq % 2 == 1) {
      seq = slot.seq.load(std::memory_order_relaxed);  // held: re-read
    } else if (slot.seq.compare_exchange_weak(seq, writing,
                                              std::memory_order_acquire,
                                              std::memory_order_relaxed)) {
      break;
    }
  }
  // Release stores: a reader that sees any of them also sees the claim.
  slot.ts_ns.store(NowNs(), std::memory_order_release);
  slot.type_a.store((static_cast<int64_t>(type) << 32) |
                        (static_cast<int64_t>(a) & 0xffffffffll),
                    std::memory_order_release);
  slot.b.store(b, std::memory_order_release);
  slot.c.store(c, std::memory_order_release);
  slot.seq.store(writing + 1, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::Dump(size_t max_events) const {
  return DumpSince(0, max_events);
}

std::vector<FlightEvent> FlightRecorder::DumpSince(uint64_t min_ticket,
                                                   size_t max_events) const {
  std::vector<FlightEvent> events;
  events.reserve(mask_ + 1);
  for (size_t i = 0; i <= mask_; ++i) {
    const Slot& slot = slots_[i];
    const uint64_t seq1 = slot.seq.load(std::memory_order_acquire);
    if (seq1 == 0 || (seq1 & 1) != 0) continue;  // empty or mid-write
    if (seq1 / 2 - 1 < min_ticket) continue;     // older than the delta
    // Acquire loads keep every payload read ahead of the re-read of `seq`:
    // the seqlock reader's acquire fence, in a form ThreadSanitizer
    // models (it does not model fences).
    FlightEvent event;
    event.ts_ns = slot.ts_ns.load(std::memory_order_acquire);
    const int64_t type_a = slot.type_a.load(std::memory_order_acquire);
    event.b = slot.b.load(std::memory_order_acquire);
    event.c = slot.c.load(std::memory_order_acquire);
    const uint64_t seq2 = slot.seq.load(std::memory_order_relaxed);
    if (seq1 != seq2) continue;  // lapped mid-read
    event.ticket = seq1 / 2 - 1;
    event.type = static_cast<FlightEventType>(type_a >> 32);
    event.a = static_cast<int32_t>(type_a & 0xffffffffll);
    events.push_back(event);
  }
  std::sort(events.begin(), events.end(),
            [](const FlightEvent& x, const FlightEvent& y) {
              return x.ticket < y.ticket;
            });
  if (events.size() > max_events) {
    events.erase(events.begin(),
                 events.end() - static_cast<ptrdiff_t>(max_events));
  }
  return events;
}

std::string FlightRecorder::Format(size_t max_events) const {
  const std::vector<FlightEvent> events = Dump(max_events);
  if (events.empty()) return "  (flight recorder empty)\n";
  const int64_t newest = events.back().ts_ns;
  std::string out;
  char line[192];
  for (const FlightEvent& event : events) {
    std::snprintf(line, sizeof(line),
                  "  [%7.2fms] #%-6llu %-18s a=%d b=%lld c=%lld\n",
                  static_cast<double>(event.ts_ns - newest) / 1e6,
                  static_cast<unsigned long long>(event.ticket),
                  FlightEventTypeName(event.type), event.a,
                  static_cast<long long>(event.b),
                  static_cast<long long>(event.c));
    out += line;
  }
  return out;
}

void FlightRecorder::Clear() {
  for (size_t i = 0; i <= mask_; ++i) {
    slots_[i].seq.store(0, std::memory_order_relaxed);
  }
  next_.store(0, std::memory_order_relaxed);
}

}  // namespace llm::obs
