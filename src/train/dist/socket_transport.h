// Socket-backed collective transport: the CommHub contract over real
// process boundaries.
//
// Topology: one SocketServer (owned by the coordinator) and one
// SocketComm per rank (in a worker thread or a separate worker process).
// The server plays the role CommHub's shared memory played — it holds the
// rounds table, gathers contributions, and broadcasts results — while
// SocketComm implements the Comm interface, so DistTrainer's worker loop
// is bit-identical over threads and sockets by construction.
//
// Failure semantics mirror CommHub:
//   * Bounded waits. A client whose wait on round `seq` expires sends
//     kPoison and returns kDeadlineExceeded; the server fails the round
//     so every other participant gets a prompt kError(kCancelled) push
//     instead of serving out its own full timeout.
//   * Corruption detection. A contribution whose payload fails its wire
//     CRC (intact framing, flipped bits — FaultSite::kSockCorruptFrame
//     models exactly this) fails the round with kInternal for every rank;
//     wrong gradients never propagate silently.
//   * AbortEpoch() pushes kAbort to every connection and fails every
//     current and future round with kCancelled; Reset(epoch) clears the
//     rounds and the latch and advances the fencing epoch.
//
// On top of that, what only a real transport needs:
//   * Reconnection. A broken connection (kSockDisconnect, a worker
//     process bounce, a dropped TCP session) is retried with
//     capped-exponential backoff and deterministic jitter inside the
//     collective deadline. The server answers a re-sent contribution for
//     a round that already completed from a small result cache, so a
//     client that disconnected between contributing and hearing the
//     result still converges.
//   * Epoch fencing. Every frame is epoch-stamped. A reconnecting client
//     from a stale spawn generation — a worker the coordinator already
//     declared dead and replaced — is answered kFenced and dropped, so it
//     can never contribute to a live round.
//   * Dead-peer visibility. The server timestamps dirty disconnects;
//     RanksDisconnectedOver(grace) lets the coordinator's monitor fence a
//     rank whose transport died long before a heartbeat timeout or a full
//     collective timeout would notice.
//
// Obs: counters dist.sock.{frames_tx,frames_rx,bytes_tx,bytes_rx,
// crc_rejects,reconnects,fenced}; flight events transport-connect /
// transport-disconnect / transport-fence.
#ifndef TFMR_TRAIN_DIST_SOCKET_TRANSPORT_H_
#define TFMR_TRAIN_DIST_SOCKET_TRANSPORT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "train/dist/comm.h"
#include "train/dist/wire.h"
#include "util/rng.h"
#include "util/status.h"

namespace llm::train::dist {

// ---------------------------------------------------------------------------
// Server (coordinator side).
// ---------------------------------------------------------------------------

class SocketServer {
 public:
  /// `address`: a Unix socket path or "tcp://HOST:PORT" ("tcp://HOST:0"
  /// binds an ephemeral port — read bound_address() after Start).
  SocketServer(int world_size, std::string address);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds, listens, and starts the accept thread.
  util::Status Start();
  void Stop();

  /// The address clients must connect to. Valid after Start().
  const std::string& bound_address() const { return bound_address_; }

  /// Fails every current and future round with kCancelled and pushes
  /// kAbort to every live connection. Idempotent.
  void AbortEpoch();

  /// New epoch: clears rounds, the result cache, the abort latch, and
  /// per-rank liveness state; connections from older epochs are fenced as
  /// they next speak. Callers must ensure no in-epoch worker is mid-round.
  void Reset(int64_t epoch);

  int64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }

  /// Heartbeat frames received from `rank` this epoch.
  int64_t HeartbeatCount(int rank) const;
  /// True once `rank` sent kGoodbye (orderly loop completion) this epoch.
  bool Finished(int rank) const;
  /// Waits until every rank has sent kGoodbye this epoch, or `timeout`
  /// passes; true if all did. A connection's frames are handled in order,
  /// so whatever a rank sent before its goodbye (its final telemetry
  /// unit) has reached the sink by then.
  bool AwaitAllFinished(std::chrono::milliseconds timeout);
  /// Ranks that connected this epoch, then dirtily lost their connection
  /// more than `grace` ago and have not reconnected or said goodbye. The
  /// monitor's fast path: transport death is visible here long before a
  /// heartbeat or collective timeout expires.
  std::vector<int> RanksDisconnectedOver(std::chrono::milliseconds grace) const;

  /// Receives every intact kTelemetry payload (an encoded
  /// obs::RankTelemetry blob, opaque to the transport). Called from the
  /// per-connection reader threads; the sink must be thread-safe. A
  /// payload that fails its wire CRC is dropped, never delivered.
  using TelemetrySink =
      std::function<void(int rank, const std::vector<uint8_t>& blob)>;
  void SetTelemetrySink(TelemetrySink sink);

 private:
  struct Conn {
    int fd = -1;
    int rank = -1;
    std::thread reader;
    std::mutex write_mu;
    std::atomic<bool> stop{false};
  };

  struct Round {
    std::vector<std::vector<float>> contrib;
    std::vector<bool> present;
    int num_present = 0;
    /// 0 = live; otherwise the util::StatusCode every participant gets.
    int32_t failed = 0;
  };

  struct RankState {
    int64_t heartbeats = 0;
    bool ever_connected = false;
    bool finished = false;
    bool connected = false;
    std::chrono::steady_clock::time_point disconnected_at{};
  };

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Conn> conn);
  void HandleFrame(const std::shared_ptr<Conn>& conn, const Frame& frame);
  /// Sends under the connection's write mutex; counts frames/bytes.
  void SendOn(const std::shared_ptr<Conn>& conn, const Frame& frame);
  /// Joins a retired connection's reader, then closes its fd under the
  /// write mutex, so a SendOn from another thread (the accept loop's
  /// hello-ack, another rank's reader pushing a result) never uses the fd
  /// as it closes or after.
  static void ReapConn(Conn& conn);
  /// Sends `frame` to every present contributor of `round` (call with
  /// mu_ held; sends happen after collecting the live conns).
  void FailRoundLocked(int64_t seq, Round* round, int32_t code,
                       std::vector<std::shared_ptr<Conn>>* notify);
  void NoteDisconnect(int rank, bool dirty);

  const int world_size_;
  const std::string address_;
  std::string bound_address_;
  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<int64_t> epoch_{0};

  mutable std::mutex mu_;
  bool aborted_ = false;                         // guarded by mu_
  std::map<int64_t, Round> rounds_;              // guarded by mu_
  /// Encoded results of recently completed rounds, answering re-sent
  /// contributions after a reconnect race. Bounded FIFO.
  std::map<int64_t, std::vector<uint8_t>> done_;  // guarded by mu_
  std::deque<int64_t> done_order_;                // guarded by mu_
  std::vector<std::shared_ptr<Conn>> by_rank_;    // guarded by mu_
  std::vector<std::shared_ptr<Conn>> graveyard_;  // guarded by mu_
  std::vector<RankState> ranks_;                  // guarded by mu_
  std::condition_variable finished_cv_;           // a rank said goodbye
  TelemetrySink telemetry_sink_;                  // guarded by mu_
};

// ---------------------------------------------------------------------------
// Client (worker side).
// ---------------------------------------------------------------------------

struct SocketCommOptions {
  /// Per-attempt connect + handshake budget.
  std::chrono::milliseconds connect_timeout{2000};
  /// Reconnect backoff (SubmitWithRetry's discipline).
  std::chrono::milliseconds backoff_initial{5};
  std::chrono::milliseconds backoff_cap{200};
  /// Seed for the deterministic backoff jitter.
  uint64_t jitter_seed = 0x50c7e7ULL;
};

/// Comm over one socket connection to a SocketServer. Single-threaded by
/// contract (one SocketComm per worker, used from that worker's loop);
/// internally it still serializes socket use so Heartbeat may race a
/// slow Exchange teardown.
class SocketComm : public Comm {
 public:
  SocketComm(int rank, int world_size, std::string server_address,
             int64_t epoch, SocketCommOptions options = {});
  ~SocketComm() override;

  SocketComm(const SocketComm&) = delete;
  SocketComm& operator=(const SocketComm&) = delete;

  /// See Comm::Exchange. Transparently reconnects (with backoff) on
  /// connection loss within `timeout`; returns kCancelled if this rank
  /// was fenced (stale epoch) or the epoch aborted, kDeadlineExceeded if
  /// the round did not complete in time (after poisoning it server-side),
  /// kInternal if any rank's contribution was corrupt.
  util::StatusOr<std::vector<std::vector<float>>> Exchange(
      int rank, int64_t seq, std::vector<float> data,
      std::chrono::milliseconds timeout) override;

  /// Best-effort kHeartbeat frame; never blocks past a short deadline and
  /// never attempts a reconnect (Exchange owns reconnection).
  void Heartbeat(int rank) override;

  /// Sends kGoodbye so the server can tell orderly completion from death.
  void Finish(int rank) override;

  /// Best-effort kTelemetry frame carrying an opaque blob; same
  /// discipline as Heartbeat (short deadline, never reconnects — a
  /// dropped unit costs visibility, never correctness).
  void ShipTelemetry(int rank, const std::vector<uint8_t>& blob) override;

  int world_size() const override { return world_size_; }

  /// Connections established, including the first. >1 means reconnected.
  int64_t connect_count() const { return connects_; }

 private:
  /// Ensures a live, hello-acked connection, retrying with backoff until
  /// `deadline`. Returns kCancelled immediately once fenced.
  util::Status EnsureConnected(SteadyClock::time_point deadline);
  void CloseConn(bool dirty);

  const int rank_;
  const int world_size_;
  const std::string address_;
  const int64_t epoch_;
  const SocketCommOptions options_;

  std::mutex mu_;       // serializes fd use across Exchange/Heartbeat
  int fd_ = -1;         // guarded by mu_
  bool fenced_ = false; // guarded by mu_: server rejected our epoch
  int64_t connects_ = 0;
  util::Rng jitter_;
};

}  // namespace llm::train::dist

#endif  // TFMR_TRAIN_DIST_SOCKET_TRANSPORT_H_
