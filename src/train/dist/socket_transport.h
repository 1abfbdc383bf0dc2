// Socket-backed collective transport: CommHub's collectives over real
// process boundaries.
//
// Topology: one SocketServer (owned by the coordinator) in front of the
// coordinator's CommHub, and one SocketComm per rank (in a worker thread
// or a separate worker process). The server is a wire front-end and holds
// no rounds: it deposits each decoded contribution into the hub, forwards
// poison, heartbeat and telemetry frames to it, and pushes back the
// verdicts the hub returns or reports. Round semantics — bounded waits,
// poisoning, the deposit-time CRC, the comm-* fault sites, abort and
// reset, the cache of completed results — are the hub's, so they are the
// same on both carriers by construction. SocketComm implements the Comm
// interface, so the worker loop is bit-identical over threads and sockets.
//
// What only a real transport adds:
//   * Wire integrity. A contribution whose payload fails its wire CRC
//     (intact framing, flipped bits — FaultSite::kSockCorruptFrame models
//     exactly this) is deposited as corrupt and fails the round with
//     kInternal for every rank. A corrupt result is re-asked; a corrupt
//     telemetry frame is dropped.
//   * Reconnection. A broken connection (kSockDisconnect, a worker
//     process bounce, a dropped TCP session) is retried with
//     util::BackoffDelay's capped-exponential backoff and deterministic
//     jitter inside the collective deadline. A contribution re-sent for a round that
//     already completed is answered from the hub's cache of completed
//     results, so a client that disconnected between contributing and
//     hearing the result still converges.
//   * Epoch fencing. Every frame is epoch-stamped. A reconnecting client
//     from a stale spawn generation — a worker the coordinator already
//     declared dead and replaced — is answered kFenced and dropped, so it
//     can never contribute to a live round. The hub's Reset(epoch) has
//     the server retire the old epoch's connections before it clears.
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

class SocketServer final : public CommHub::FrontEnd {
 public:
  /// Fronts `hub` (which must outlive the server) on `address`: a Unix
  /// socket path or "tcp://HOST:PORT" ("tcp://HOST:0" binds an ephemeral
  /// port — read bound_address() after Start).
  SocketServer(CommHub* hub, std::string address);
  ~SocketServer() override;

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds, listens, and starts the accept thread.
  util::Status Start();
  void Stop();

  /// The address clients must connect to. Valid after Start().
  const std::string& bound_address() const { return bound_address_; }

  /// New epoch: retires every connection (joining its reader) and clears
  /// per-rank liveness state; connections from older epochs are fenced as
  /// they next speak. Called by the hub's Reset before it clears.
  void Reset(int64_t epoch) override;

  /// True once `rank` sent kGoodbye (orderly loop completion) this epoch.
  bool Finished(int rank) const;
  /// Waits until every rank has sent kGoodbye this epoch, or `timeout`
  /// passes; true if all did. A connection's frames are handled in order,
  /// so whatever a rank sent before its goodbye (its final telemetry
  /// unit) has reached the hub by then.
  bool AwaitAllFinished(std::chrono::milliseconds timeout);
  /// Ranks that connected this epoch, then dirtily lost their connection
  /// more than `grace` ago and have not reconnected or said goodbye. The
  /// monitor's fast path: transport death is visible here long before a
  /// heartbeat or collective timeout expires.
  std::vector<int> RanksDisconnectedOver(std::chrono::milliseconds grace) const;

 private:
  struct Conn {
    int fd = -1;
    int rank = -1;
    std::thread reader;
    std::mutex write_mu;
    std::atomic<bool> stop{false};
  };

  struct RankState {
    bool ever_connected = false;
    bool finished = false;
    bool connected = false;
    std::chrono::steady_clock::time_point disconnected_at{};
  };

  // CommHub::FrontEnd: push verdicts and aborts to the remote ranks.
  void RoundSettled(int64_t seq, const CommHub::Verdict& verdict,
                    const std::vector<int>& waiting) override;
  void AbortEpoch() override;

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Conn> conn);
  void HandleFrame(const std::shared_ptr<Conn>& conn, const Frame& frame);
  /// Sends under the connection's write mutex; counts frames/bytes.
  void SendOn(const std::shared_ptr<Conn>& conn, const Frame& frame);
  /// Sends `frame` to each of `ranks` that has a live connection.
  void Push(Frame frame, const std::vector<int>& ranks);
  /// Stops and unpublishes every connection (call with mu_ held); the
  /// caller reaps what it returns after unlocking.
  std::vector<std::shared_ptr<Conn>> RetireAllLocked();
  /// Joins a retired connection's reader, then closes its fd under the
  /// write mutex, so a SendOn from another thread (the accept loop's
  /// hello-ack, another rank's reader pushing a result) never uses the fd
  /// as it closes or after.
  static void ReapConn(Conn& conn);
  void NoteDisconnect(int rank, bool dirty);

  CommHub* const hub_;
  const int world_size_;
  const std::string address_;
  std::string bound_address_;
  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<int64_t> epoch_{0};

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<Conn>> by_rank_;    // guarded by mu_
  std::vector<std::shared_ptr<Conn>> graveyard_;  // guarded by mu_
  std::vector<RankState> ranks_;                  // guarded by mu_
  std::condition_variable finished_cv_;           // a rank said goodbye
};

// ---------------------------------------------------------------------------
// Client (worker side).
// ---------------------------------------------------------------------------

/// Comm over one socket connection to a SocketServer. Single-threaded by
/// contract (one SocketComm per worker, used from that worker's loop);
/// internally it still serializes socket use so Heartbeat may race a
/// slow Exchange teardown.
class SocketComm : public Comm {
 public:
  /// The backoff jitter is seeded from `rank` and `epoch`.
  SocketComm(int rank, int world_size, std::string server_address,
             int64_t epoch);
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
  /// Sends `frame` stamped with this rank and epoch under a short
  /// deadline, only on a live connection (Heartbeat, ShipTelemetry).
  void SendBestEffort(Frame frame);

  const int rank_;
  const int world_size_;
  const std::string address_;
  const int64_t epoch_;

  std::mutex mu_;       // serializes fd use across Exchange/Heartbeat
  int fd_ = -1;         // guarded by mu_
  bool fenced_ = false; // guarded by mu_: server rejected our epoch
  int64_t connects_ = 0;
  util::Rng jitter_;
};

}  // namespace llm::train::dist

#endif  // TFMR_TRAIN_DIST_SOCKET_TRANSPORT_H_
