#include "train/dist/comm.h"

#include <cstring>

#include "obs/flight_recorder.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/fault.h"

namespace llm::train::dist {
namespace {

/// Completed rounds kept for late readers. A rank still reading round s
/// has not deposited into s+1, so s+1 cannot complete: its round is always
/// the newest completed one, and two leave a margin.
constexpr size_t kCompletedKept = 2;

uint32_t Checksum(const std::vector<float>& buf) {
  return util::Crc32(buf.data(), buf.size() * sizeof(float));
}

util::Status Poisoned(int64_t seq) {
  return util::Status::Cancelled("collective " + std::to_string(seq) +
                                 " poisoned: a rank's wait expired");
}

}  // namespace

CommHub::CommHub(int world_size)
    : world_size_(world_size),
      heartbeats_(new std::atomic<int64_t>[static_cast<size_t>(world_size)]) {
  LLM_CHECK_GE(world_size, 1);
  for (int r = 0; r < world_size_; ++r) {
    heartbeats_[r].store(0, std::memory_order_relaxed);
  }
}

void CommHub::Heartbeat(int rank) {
  heartbeats_[rank].fetch_add(1, std::memory_order_relaxed);
}

int64_t CommHub::HeartbeatCount(int rank) const {
  return heartbeats_[rank].load(std::memory_order_relaxed);
}

void CommHub::SetTelemetrySink(TelemetrySink sink) {
  std::lock_guard<std::mutex> lock(sink_mu_);
  telemetry_sink_ = std::move(sink);
}

void CommHub::ShipTelemetry(int rank, const std::vector<uint8_t>& blob) {
  TelemetrySink sink;
  {
    std::lock_guard<std::mutex> lock(sink_mu_);
    sink = telemetry_sink_;
  }
  // Invoked outside the lock: the sink (typically an aggregator ingest)
  // may itself take locks, and a slow sink must not serialize shippers.
  if (sink) sink(rank, blob);
}

void CommHub::SetFrontEnd(FrontEnd* front_end) { front_end_.store(front_end); }

std::optional<CommHub::Verdict> CommHub::SettledLocked(int64_t seq) const {
  if (aborted_) {
    return Verdict{util::Status::Cancelled(
                       "collective " + std::to_string(seq) +
                       " aborted (epoch teardown)"),
                   nullptr};
  }
  if (auto done = done_.find(seq); done != done_.end()) {
    return Verdict{util::Status::OK(), done->second};
  }
  auto it = rounds_.find(seq);
  if (it != rounds_.end() && !it->second.failed.ok()) {
    return Verdict{it->second.failed, nullptr};
  }
  return std::nullopt;
}

CommHub::Round& CommHub::OpenLocked(int64_t seq) {
  Round& round = rounds_[seq];
  if (round.contrib.empty()) {
    round.contrib.resize(static_cast<size_t>(world_size_));
    round.crc.resize(static_cast<size_t>(world_size_), 0);
    round.present.resize(static_cast<size_t>(world_size_), false);
  }
  return round;
}

std::vector<int> CommHub::SettleLocked(Round* round, util::Status status) {
  round->failed = std::move(status);
  cv_.notify_all();
  std::vector<int> waiting;
  for (int r = 0; r < world_size_; ++r) {
    if (round->present[static_cast<size_t>(r)]) waiting.push_back(r);
  }
  return waiting;
}

void CommHub::Notify(int64_t seq, const Verdict& verdict,
                     const std::vector<int>& waiting) {
  FrontEnd* front_end = front_end_.load();
  if (front_end != nullptr && !waiting.empty()) {
    front_end->RoundSettled(seq, verdict, waiting);
  }
}

std::optional<CommHub::Verdict> CommHub::Deposit(int rank, int64_t seq,
                                                 std::vector<float> data,
                                                 bool intact) {
  LLM_CHECK(rank >= 0 && rank < world_size_);
  // Fault sites fire outside the hub lock: the injector's fire listener
  // (the obs bridge) must be free to record without lock nesting.
  const bool drop = util::MaybeInjectFault(util::FaultSite::kCommDrop);
  const bool corrupt = util::MaybeInjectFault(util::FaultSite::kCommCorrupt);
  // Checksum the payload as handed to the hub; corruption below models a
  // transport-level bit flip the checksum must catch.
  const uint32_t crc = Checksum(data);
  if (corrupt && !data.empty()) {
    uint32_t bits;
    std::memcpy(&bits, &data[data.size() / 2], sizeof(bits));
    bits ^= 1u << 12;
    std::memcpy(&data[data.size() / 2], &bits, sizeof(bits));
  }

  Verdict verdict;
  std::vector<int> waiting;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto settled = SettledLocked(seq)) return settled;
    Round& round = OpenLocked(seq);
    const size_t r = static_cast<size_t>(rank);
    if (drop || round.present[r]) return std::nullopt;
    round.present[r] = true;
    if (!intact) {
      verdict.status = util::Status::Internal(
          "collective " + std::to_string(seq) + ": rank " +
          std::to_string(rank) + "'s contribution failed its wire CRC");
    } else {
      round.contrib[r] = std::move(data);
      round.crc[r] = crc;
      if (++round.num_present < world_size_) return std::nullopt;
      // Complete: verify every contribution against its deposit-time
      // checksum, once, for every participant.
      for (size_t s = 0; s < round.crc.size() && verdict.status.ok(); ++s) {
        if (Checksum(round.contrib[s]) != round.crc[s]) {
          verdict.status = util::Status::Internal(
              "collective " + std::to_string(seq) +
              ": checksum mismatch in rank " + std::to_string(s) +
              "'s contribution (corrupt transport)");
        }
      }
    }
    waiting = SettleLocked(&round, verdict.status);
    if (verdict.status.ok()) {
      verdict.gather = std::make_shared<const Gather>(std::move(round.contrib));
      rounds_.erase(seq);
      done_[seq] = verdict.gather;
      // Rounds complete in seq order within an epoch: drop the oldest.
      while (done_.size() > kCompletedKept) done_.erase(done_.begin());
    }
  }
  Notify(seq, verdict, waiting);
  return std::nullopt;
}

void CommHub::Poison(int64_t seq) {
  std::vector<int> waiting;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (SettledLocked(seq)) return;
    waiting = SettleLocked(&OpenLocked(seq), Poisoned(seq));
  }
  Notify(seq, {Poisoned(seq), nullptr}, waiting);
}

util::StatusOr<Gather> CommHub::Wait(int rank, int64_t seq,
                                     std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  std::optional<Verdict> verdict;
  cv_.wait_for(lock, timeout,
               [&] { return (verdict = SettledLocked(seq)).has_value(); });
  if (verdict) {
    lock.unlock();
    if (verdict->status.ok()) return *verdict->gather;
    const bool corrupt =
        verdict->status.code() == util::StatusCode::kInternal;
    obs::FlightRecorder::Global().Record(
        obs::FlightEventType::kCollectiveAbort, rank, seq,
        /*reason=*/corrupt ? 1 : 2);
    return verdict->status;
  }
  // First waiter to expire poisons the round so every other participant
  // fails fast instead of serving out its own full timeout.
  Round& round = OpenLocked(seq);
  const int arrived = round.num_present;
  const std::vector<int> waiting = SettleLocked(&round, Poisoned(seq));
  lock.unlock();
  Notify(seq, {Poisoned(seq), nullptr}, waiting);
  obs::FlightRecorder::Global().Record(obs::FlightEventType::kCollectiveAbort,
                                       rank, seq, /*reason=*/0);
  return util::Status::DeadlineExceeded(
      "collective " + std::to_string(seq) + " timed out at rank " +
      std::to_string(rank) + " (" + std::to_string(arrived) + "/" +
      std::to_string(world_size_) + " ranks arrived)");
}

util::StatusOr<Gather> CommHub::Exchange(int rank, int64_t seq,
                                         std::vector<float> data,
                                         std::chrono::milliseconds timeout) {
  // A round settled before this deposit is answered by Wait at once.
  (void)Deposit(rank, seq, std::move(data));
  return Wait(rank, seq, timeout);
}

util::Status Comm::Barrier(int rank, int64_t seq,
                           std::chrono::milliseconds timeout) {
  return Exchange(rank, seq, {}, timeout).status();
}

util::Status Comm::AllReduceMean(int rank, int64_t seq,
                                 std::vector<float>* data,
                                 std::chrono::milliseconds timeout) {
  const int world = world_size();
  auto gathered = Exchange(rank, seq, *data, timeout);
  LLM_RETURN_IF_ERROR(gathered.status());
  const auto& bufs = gathered.value();
  const size_t n = data->size();
  for (int r = 0; r < world; ++r) {
    LLM_CHECK_EQ(bufs[static_cast<size_t>(r)].size(), n)
        << "AllReduceMean buffer size mismatch at rank " << r;
  }
  const float inv = 1.0f / static_cast<float>(world);
  for (size_t j = 0; j < n; ++j) {
    // Rank-ordered summation: every rank computes identical bits.
    float sum = 0.0f;
    for (int r = 0; r < world; ++r) {
      sum += bufs[static_cast<size_t>(r)][j];
    }
    (*data)[j] = sum * inv;
  }
  return util::Status::OK();
}

void CommHub::AbortAll() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    aborted_ = true;
    cv_.notify_all();
  }
  if (FrontEnd* front_end = front_end_.load()) front_end->AbortEpoch();
}

void CommHub::Reset(int64_t epoch) {
  if (FrontEnd* front_end = front_end_.load()) front_end->Reset(epoch);
  std::lock_guard<std::mutex> lock(mu_);
  rounds_.clear();
  done_.clear();
  aborted_ = false;
}

}  // namespace llm::train::dist
