// CommHub: the one collective plane under data-parallel training.
//
// world_size ranks rendezvous on numbered collectives. The primitive is
// Exchange — an all-gather: every rank contributes a float buffer and
// receives every rank's contribution, indexed by rank. The reductions
// data-parallel training needs are built on top of it in plain code
// (AllReduceMean sums the gathered buffers in rank order, so every rank
// computes bit-identical results — the property the bit-exact replay
// guarantees in dist_trainer rest on).
//
// The hub holds the only rounds table, whatever carries the traffic.
// Exchange is a non-blocking Deposit, which every carrier calls (remote
// ranks through a wire front-end, SocketServer, that deposits each
// decoded contribution and pushes back the verdicts), then a blocking
// Wait, which only in-process ranks use. A completed round's gather moves
// to a small cache of completed results, where late waiters and re-sent
// contributions (after a reconnect) read it.
//
// Failure semantics, which is most of the point:
//   * Every wait is bounded. The first rank whose wait expires poisons the
//     round and returns kDeadlineExceeded; every other participant gets
//     kCancelled promptly instead of serving out its own timeout.
//   * Every contribution carries a CRC32 taken at deposit and checked when
//     the round completes: corruption (FaultSite::kCommCorrupt flips a bit
//     after the checksum) fails the round with kInternal for every rank.
//   * A rank counts once per round: a second deposit is ignored.
//   * AbortAll() fails every current and future wait with kCancelled for
//     epoch teardown; Reset() clears rounds and the latch for the next.
//
// Heartbeats and telemetry ride on the hub too: Heartbeat(rank) is one
// relaxed increment the supervisor's monitor watches for silent stalls.
//
// Fault sites (once per contribution, inside Deposit, on either carrier):
//   kCommDrop     contribution vanishes; the round times out everywhere.
//   kCommCorrupt  one bit of the deposited payload flips after the CRC.
#ifndef TFMR_TRAIN_DIST_COMM_H_
#define TFMR_TRAIN_DIST_COMM_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "util/status.h"

namespace llm::train::dist {

/// Every rank's buffer of one round, indexed by rank.
using Gather = std::vector<std::vector<float>>;

/// Worker-side collective transport. The one primitive is Exchange (an
/// all-gather); Barrier and AllReduceMean are derived on top of it in
/// plain rank-ordered code, so every implementation — the in-process
/// CommHub below, the socket-backed SocketComm — produces bit-identical
/// reductions by construction. DistTrainer and the multi-process worker
/// loop are written against this interface and never name a transport.
class Comm {
 public:
  virtual ~Comm() = default;

  /// All-gather over ranks. Every live rank must call with the same `seq`
  /// (collectives are numbered in lockstep within an epoch; workers keep a
  /// local counter). Blocks until all world_size ranks of this round have
  /// contributed, then returns every rank's buffer, indexed by rank.
  ///
  /// Errors: kDeadlineExceeded (this rank's wait expired first),
  /// kCancelled (the round was poisoned by another rank's timeout, the
  /// epoch was aborted, or this rank was fenced out as stale), kInternal
  /// (a contribution failed its CRC).
  virtual util::StatusOr<Gather> Exchange(
      int rank, int64_t seq, std::vector<float> data,
      std::chrono::milliseconds timeout) = 0;

  /// One cheap liveness signal per step; the coordinator's monitor
  /// compares counters over time to detect silent stalls.
  virtual void Heartbeat(int rank) = 0;

  /// Announces an orderly exit (loop ran to completion), so the
  /// coordinator can tell a finished rank from a dead one when the
  /// transport connection goes away. No-op for in-process transports.
  virtual void Finish(int rank) { (void)rank; }

  /// Best-effort ship of an encoded obs::RankTelemetry blob to the
  /// coordinator's aggregator. The blob is opaque to the transport.
  /// Telemetry rides outside the collective algebra: a dropped or
  /// delayed unit costs observability, never correctness, so
  /// implementations must never block a step on it and must never
  /// reconnect for it. Default: drop (transports without a coordinator
  /// sink).
  virtual void ShipTelemetry(int rank, const std::vector<uint8_t>& blob) {
    (void)rank;
    (void)blob;
  }

  virtual int world_size() const = 0;

  /// Rendezvous with no payload: Exchange of empty buffers.
  util::Status Barrier(int rank, int64_t seq,
                       std::chrono::milliseconds timeout);

  /// In-place mean all-reduce: exchanges `*data`, then overwrites it with
  /// the element-wise mean, summed in rank order so every rank gets the
  /// same bits. All buffers must be the same size.
  util::Status AllReduceMean(int rank, int64_t seq, std::vector<float>* data,
                             std::chrono::milliseconds timeout);
};

class CommHub : public Comm {
 public:
  /// How a round ended, as every participant sees it: OK with the gather,
  /// or the status every participant fails with.
  struct Verdict {
    util::Status status;
    std::shared_ptr<const Gather> gather;  // set when status is OK
  };

  /// A wire front-end that carries remote ranks' traffic into the hub
  /// (SocketServer). The hub calls it outside its own lock.
  class FrontEnd {
   public:
    virtual ~FrontEnd() = default;
    /// Round `seq` settled; `waiting` are the ranks that deposited into
    /// it and are owed `verdict`.
    virtual void RoundSettled(int64_t seq, const Verdict& verdict,
                              const std::vector<int>& waiting) = 0;
    /// AbortAll ran: every remote rank must stop waiting.
    virtual void AbortEpoch() = 0;
    /// Reset(epoch) is about to clear the hub: retire the old epoch's
    /// connections first, so none of their frames reaches a new round.
    virtual void Reset(int64_t epoch) = 0;
  };

  explicit CommHub(int world_size);

  CommHub(const CommHub&) = delete;
  CommHub& operator=(const CommHub&) = delete;

  /// See Comm::Exchange: Deposit, then Wait.
  util::StatusOr<Gather> Exchange(int rank, int64_t seq,
                                  std::vector<float> data,
                                  std::chrono::milliseconds timeout) override;

  /// The non-blocking half of Exchange, for every carrier: `rank`'s
  /// contribution to round `seq`. `intact` false marks a payload that
  /// failed its wire CRC; the round fails with kInternal. Returns the
  /// verdict when the round had settled before this deposit (aborted,
  /// failed, or completed: a re-sent contribution is answered from the
  /// cache); otherwise nullopt, and the front end hears if this deposit
  /// settled the round.
  std::optional<Verdict> Deposit(int rank, int64_t seq,
                                 std::vector<float> data, bool intact = true);

  /// Fails round `seq` with kCancelled unless it already settled: some
  /// rank's wait on it expired.
  void Poison(int64_t seq);

  /// Wakes every current and future waiter with kCancelled. Idempotent.
  void AbortAll();

  /// Clears all rounds and the abort latch for spawn generation `epoch`,
  /// after the front end (if any) retired the previous one. Callers must
  /// ensure no rank is inside a collective (join workers first).
  void Reset(int64_t epoch = 0);

  /// Attaches (or, with null, detaches) the wire front-end.
  void SetFrontEnd(FrontEnd* front_end);

  /// One relaxed increment; the supervisor's monitor reads the counter
  /// to detect ranks that stopped making progress.
  void Heartbeat(int rank) override;
  int64_t HeartbeatCount(int rank) const;

  /// Receives every ShipTelemetry blob, from in-process ranks and from
  /// the front end's readers alike; the sink must be thread-safe. Set
  /// before ranks start.
  using TelemetrySink =
      std::function<void(int rank, const std::vector<uint8_t>& blob)>;
  void SetTelemetrySink(TelemetrySink sink);
  void ShipTelemetry(int rank, const std::vector<uint8_t>& blob) override;

  int world_size() const override { return world_size_; }

 private:
  struct Round {
    Gather contrib;
    std::vector<uint32_t> crc;
    std::vector<bool> present;
    int num_present = 0;
    util::Status failed;  // not OK once the round failed
  };

  /// The blocking half of Exchange, for in-process ranks.
  util::StatusOr<Gather> Wait(int rank, int64_t seq,
                              std::chrono::milliseconds timeout);
  /// The verdict of round `seq` if it settled (or the epoch aborted).
  std::optional<Verdict> SettledLocked(int64_t seq) const;
  Round& OpenLocked(int64_t seq);
  /// Settles `round` (a failure when `status` is not OK), wakes waiters,
  /// and returns the ranks that deposited into it.
  std::vector<int> SettleLocked(Round* round, util::Status status);
  void Notify(int64_t seq, const Verdict& verdict,
              const std::vector<int>& waiting);

  const int world_size_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<int64_t, Round> rounds_;  // collecting or failed; guarded by mu_
  /// Completed rounds' gathers, newest kCompletedKept by seq; guarded by mu_.
  std::map<int64_t, std::shared_ptr<const Gather>> done_;
  bool aborted_ = false;             // guarded by mu_
  std::atomic<FrontEnd*> front_end_{nullptr};
  std::unique_ptr<std::atomic<int64_t>[]> heartbeats_;
  mutable std::mutex sink_mu_;
  TelemetrySink telemetry_sink_;     // guarded by sink_mu_
};

}  // namespace llm::train::dist

#endif  // TFMR_TRAIN_DIST_COMM_H_
