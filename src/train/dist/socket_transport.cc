#include "train/dist/socket_transport.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <numeric>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "util/backoff.h"
#include "util/check.h"

namespace llm::train::dist {
namespace {

using obs::FlightEventType;
using obs::FlightRecorder;

struct SockMetrics {
  obs::Counter* frames_tx;
  obs::Counter* frames_rx;
  obs::Counter* bytes_tx;
  obs::Counter* bytes_rx;
  obs::Counter* crc_rejects;
  obs::Counter* reconnects;
  obs::Counter* fenced;
};

SockMetrics& Metrics() {
  static SockMetrics* m = [] {
    auto& reg = obs::MetricsRegistry::Global();
    return new SockMetrics{reg.GetCounter("dist.sock.frames_tx"),
                           reg.GetCounter("dist.sock.frames_rx"),
                           reg.GetCounter("dist.sock.bytes_tx"),
                           reg.GetCounter("dist.sock.bytes_rx"),
                           reg.GetCounter("dist.sock.crc_rejects"),
                           reg.GetCounter("dist.sock.reconnects"),
                           reg.GetCounter("dist.sock.fenced")};
  }();
  return *m;
}

void CountTx(const Frame& frame) {
  Metrics().frames_tx->Increment();
  Metrics().bytes_tx->Increment(kFrameHeaderBytes + frame.payload.size());
}

void CountRx(const Frame& frame) {
  Metrics().frames_rx->Increment();
  Metrics().bytes_rx->Increment(kFrameHeaderBytes + frame.payload.size());
}

/// Per-attempt connect + handshake budget, and the reconnect backoff.
constexpr std::chrono::milliseconds kConnectTimeout{2000};
constexpr std::chrono::milliseconds kBackoffInitial{5};
constexpr std::chrono::milliseconds kBackoffCap{200};

/// Server-side write deadline: bounded so a wedged client can never park
/// a reader thread that is fanning out results.
SteadyClock::time_point ShortWriteDeadline() {
  return SteadyClock::now() + std::chrono::milliseconds(2000);
}

}  // namespace

// ---------------------------------------------------------------------------
// SocketServer
// ---------------------------------------------------------------------------

SocketServer::SocketServer(CommHub* hub, std::string address)
    : hub_(hub), world_size_(hub->world_size()), address_(std::move(address)) {
  by_rank_.resize(static_cast<size_t>(world_size_));
  ranks_.resize(static_cast<size_t>(world_size_));
  hub_->SetFrontEnd(this);
}

SocketServer::~SocketServer() {
  Stop();
  hub_->SetFrontEnd(nullptr);
}

util::Status SocketServer::Start() {
  auto fd = ListenOn(address_, &bound_address_);
  LLM_RETURN_IF_ERROR(fd.status());
  listen_fd_ = fd.value();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return util::Status::OK();
}

void SocketServer::Stop() {
  if (stopping_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::shared_ptr<Conn>> reap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    reap = RetireAllLocked();
  }
  for (auto& conn : reap) ReapConn(*conn);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void SocketServer::AcceptLoop() {
  while (!stopping_.load()) {
    // Reap readers that exited on their own (client disconnects) and
    // retired connections replaced by a reconnect.
    std::vector<std::shared_ptr<Conn>> reap;
    {
      std::lock_guard<std::mutex> lock(mu_);
      reap.swap(graveyard_);
    }
    for (auto& conn : reap) ReapConn(*conn);

    struct pollfd pfd{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 50);
    if (rc <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 ||
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
      ::close(fd);
      continue;
    }

    // Handshake: the first frame must be a kHello carrying the client's
    // rank and spawn epoch.
    auto hello = ReadFrame(
        fd, SteadyClock::now() + std::chrono::milliseconds(2000));
    if (!hello.ok() || hello.value().type != FrameType::kHello ||
        hello.value().rank < 0 || hello.value().rank >= world_size_) {
      ::close(fd);
      continue;
    }
    CountRx(hello.value());
    const int rank = hello.value().rank;
    const int64_t cur_epoch = epoch_.load(std::memory_order_relaxed);
    if (hello.value().epoch != cur_epoch) {
      // A worker from a stale spawn generation — fence it out before it
      // can say anything else.
      Frame fence;
      fence.type = FrameType::kFenced;
      fence.rank = rank;
      fence.epoch = cur_epoch;
      (void)SendFrame(fd, fence, ShortWriteDeadline());
      CountTx(fence);
      Metrics().fenced->Increment();
      FlightRecorder::Global().Record(FlightEventType::kTransportFence,
                                      rank, hello.value().epoch, cur_epoch);
      ::close(fd);
      continue;
    }

    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->rank = rank;
    bool reconnect = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (auto& old = by_rank_[static_cast<size_t>(rank)]) {
        old->stop.store(true);
        ::shutdown(old->fd, SHUT_RDWR);
        graveyard_.push_back(std::move(old));
      }
      RankState& rs = ranks_[static_cast<size_t>(rank)];
      reconnect = rs.ever_connected;
      rs.ever_connected = true;
      rs.connected = true;
      by_rank_[static_cast<size_t>(rank)] = conn;
      // The reader is started under the same lock that publishes the
      // conn: a concurrent Reset/Stop must either see the conn with its
      // reader attached (and join it) or not see it at all. Publishing
      // first and attaching after opens a window where the conn is
      // reaped "readerless" and the thread is never joined.
      conn->reader = std::thread([this, conn] { ReaderLoop(conn); });
    }
    if (reconnect) Metrics().reconnects->Increment();
    FlightRecorder::Global().Record(FlightEventType::kTransportConnect,
                                    rank, cur_epoch, reconnect ? 1 : 0);

    Frame ack;
    ack.type = FrameType::kHelloAck;
    ack.rank = rank;
    ack.epoch = cur_epoch;
    SendOn(conn, ack);
  }
}

void SocketServer::NoteDisconnect(int rank, bool dirty) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    RankState& rs = ranks_[static_cast<size_t>(rank)];
    if (!rs.connected) return;  // already noted (replaced by reconnect)
    rs.connected = false;
    rs.disconnected_at = std::chrono::steady_clock::now();
  }
  FlightRecorder::Global().Record(
      FlightEventType::kTransportDisconnect, rank,
      epoch_.load(std::memory_order_relaxed), dirty ? 1 : 0);
}

void SocketServer::ReaderLoop(std::shared_ptr<Conn> conn) {
  while (!conn->stop.load() && !stopping_.load()) {
    auto frame = ReadFrame(
        conn->fd, SteadyClock::now() + std::chrono::milliseconds(100));
    if (!frame.ok()) {
      if (frame.status().code() == util::StatusCode::kDeadlineExceeded) {
        continue;  // idle poll tick
      }
      break;  // closed / reset / desynced stream: drop the connection
    }
    CountRx(frame.value());
    const int64_t cur_epoch = epoch_.load(std::memory_order_relaxed);
    if (frame.value().epoch != cur_epoch) {
      Frame fence;
      fence.type = FrameType::kFenced;
      fence.rank = conn->rank;
      fence.epoch = cur_epoch;
      SendOn(conn, fence);
      Metrics().fenced->Increment();
      FlightRecorder::Global().Record(FlightEventType::kTransportFence,
                                      conn->rank, frame.value().epoch,
                                      cur_epoch);
      break;
    }
    HandleFrame(conn, frame.value());
  }
  bool clean;
  {
    std::lock_guard<std::mutex> lock(mu_);
    clean = ranks_[static_cast<size_t>(conn->rank)].finished;
  }
  if (!stopping_.load() && !conn->stop.load()) {
    NoteDisconnect(conn->rank, /*dirty=*/!clean);
  }
  // The fd is closed by whoever joins this conn (Stop/Reset/reap); a
  // replaced conn's fd must outlive the reader to avoid fd-number reuse.
}

void SocketServer::ReapConn(Conn& conn) {
  if (conn.reader.joinable()) conn.reader.join();
  std::lock_guard<std::mutex> lock(conn.write_mu);
  if (conn.fd >= 0) ::close(conn.fd);
  conn.fd = -1;
}

void SocketServer::SendOn(const std::shared_ptr<Conn>& conn,
                          const Frame& frame) {
  std::lock_guard<std::mutex> lock(conn->write_mu);
  // Errors are deliberately swallowed: a failed push means the client is
  // gone; it will reconnect and re-ask, or the monitor will fence it.
  (void)SendFrame(conn->fd, frame, ShortWriteDeadline());
  CountTx(frame);
}

void SocketServer::HandleFrame(const std::shared_ptr<Conn>& conn,
                               const Frame& frame) {
  switch (frame.type) {
    case FrameType::kHeartbeat:
      hub_->Heartbeat(conn->rank);
      return;
    case FrameType::kGoodbye: {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ranks_[static_cast<size_t>(conn->rank)].finished = true;
      }
      finished_cv_.notify_all();
      return;
    }
    case FrameType::kTelemetry:
      // Best-effort observability: a payload that failed its wire CRC is
      // dropped here rather than failing anything — telemetry rides
      // outside the collective algebra.
      if (!frame.payload_ok) {
        Metrics().crc_rejects->Increment();
        return;
      }
      hub_->ShipTelemetry(conn->rank, frame.payload);
      return;
    case FrameType::kPoison:
      // The sender's wait on `seq` expired: the hub fails the round so
      // every other participant gets a prompt kCancelled.
      hub_->Poison(frame.seq);
      return;
    case FrameType::kContribution: {
      // A payload that failed its wire CRC (intact framing, flipped bits)
      // fails the round with kInternal.
      if (!frame.payload_ok) Metrics().crc_rejects->Increment();
      auto settled = hub_->Deposit(conn->rank, frame.seq,
                                   DecodeFloats(frame.payload),
                                   frame.payload_ok);
      // A round that had settled already is answered at once; otherwise
      // the verdict comes through RoundSettled when the round settles.
      if (settled) RoundSettled(frame.seq, *settled, {conn->rank});
      return;
    }
    default:
      return;  // client->server stream carries nothing else
  }
}

void SocketServer::RoundSettled(int64_t seq, const CommHub::Verdict& verdict,
                                const std::vector<int>& waiting) {
  Frame reply;
  reply.epoch = epoch_.load(std::memory_order_relaxed);
  reply.seq = seq;
  reply.status = static_cast<int32_t>(verdict.status.code());
  if (verdict.status.ok()) {
    reply.type = FrameType::kResult;
    reply.payload = EncodeGather(*verdict.gather);
  } else {
    reply.type = FrameType::kError;
    const std::string& msg = verdict.status.message();
    reply.payload.assign(msg.begin(), msg.end());
  }
  Push(std::move(reply), waiting);
}

void SocketServer::AbortEpoch() {
  Frame abort;
  abort.type = FrameType::kAbort;
  abort.epoch = epoch_.load(std::memory_order_relaxed);
  std::vector<int> all(static_cast<size_t>(world_size_));
  std::iota(all.begin(), all.end(), 0);
  Push(std::move(abort), all);
}

void SocketServer::Push(Frame frame, const std::vector<int>& ranks) {
  std::vector<std::shared_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int r : ranks) {
      if (const auto& conn = by_rank_[static_cast<size_t>(r)]) {
        conns.push_back(conn);
      }
    }
  }
  for (auto& conn : conns) {
    frame.rank = conn->rank;
    SendOn(conn, frame);
  }
}

std::vector<std::shared_ptr<SocketServer::Conn>>
SocketServer::RetireAllLocked() {
  std::vector<std::shared_ptr<Conn>> reap;
  for (auto& conn : by_rank_) {
    if (conn) {
      conn->stop.store(true);
      ::shutdown(conn->fd, SHUT_RDWR);
      reap.push_back(std::move(conn));
    }
  }
  reap.insert(reap.end(), std::make_move_iterator(graveyard_.begin()),
              std::make_move_iterator(graveyard_.end()));
  graveyard_.clear();
  return reap;
}

void SocketServer::Reset(int64_t epoch) {
  std::vector<std::shared_ptr<Conn>> reap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    epoch_.store(epoch, std::memory_order_relaxed);
    reap = RetireAllLocked();
    ranks_.assign(static_cast<size_t>(world_size_), RankState{});
  }
  for (auto& conn : reap) ReapConn(*conn);
}

bool SocketServer::Finished(int rank) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ranks_[static_cast<size_t>(rank)].finished;
}

bool SocketServer::AwaitAllFinished(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  return finished_cv_.wait_for(lock, timeout, [this] {
    return std::all_of(ranks_.begin(), ranks_.end(),
                       [](const RankState& rs) { return rs.finished; });
  });
}

std::vector<int> SocketServer::RanksDisconnectedOver(
    std::chrono::milliseconds grace) const {
  const auto now = std::chrono::steady_clock::now();
  std::vector<int> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (int r = 0; r < world_size_; ++r) {
    const RankState& rs = ranks_[static_cast<size_t>(r)];
    if (rs.ever_connected && !rs.connected && !rs.finished &&
        now - rs.disconnected_at > grace) {
      out.push_back(r);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// SocketComm
// ---------------------------------------------------------------------------

SocketComm::SocketComm(int rank, int world_size, std::string server_address,
                       int64_t epoch)
    : rank_(rank),
      world_size_(world_size),
      address_(std::move(server_address)),
      epoch_(epoch),
      jitter_(0x50c7e7ULL ^
              (0x9E3779B97F4A7C15ull * static_cast<uint64_t>(rank + 1)) ^
              (0xD1B54A32D192ED03ull * static_cast<uint64_t>(epoch + 1))) {}

SocketComm::~SocketComm() {
  std::lock_guard<std::mutex> lock(mu_);
  CloseConn(/*dirty=*/false);
}

void SocketComm::CloseConn(bool dirty) {
  (void)dirty;
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

util::Status SocketComm::EnsureConnected(SteadyClock::time_point deadline) {
  if (fd_ >= 0) return util::Status::OK();
  int attempt = 0;
  while (true) {
    if (fenced_) {
      return util::Status::Cancelled(
          "rank " + std::to_string(rank_) + " fenced: epoch " +
          std::to_string(epoch_) + " is stale");
    }
    const auto now = SteadyClock::now();
    if (now >= deadline) {
      return util::Status::DeadlineExceeded(
          "rank " + std::to_string(rank_) +
          " could not (re)connect to " + address_ + " within deadline");
    }
    const auto attempt_deadline =
        std::min(deadline, now + kConnectTimeout);
    auto fd = ConnectTo(address_, attempt_deadline);
    if (fd.ok()) {
      Frame hello;
      hello.type = FrameType::kHello;
      hello.rank = rank_;
      hello.epoch = epoch_;
      util::Status sent = SendFrame(fd.value(), hello, attempt_deadline);
      if (sent.ok()) {
        CountTx(hello);
        auto ack = ReadFrame(fd.value(), attempt_deadline);
        if (ack.ok()) {
          CountRx(ack.value());
          if (ack.value().type == FrameType::kHelloAck) {
            fd_ = fd.value();
            ++connects_;
            return util::Status::OK();
          }
          if (ack.value().type == FrameType::kFenced) {
            fenced_ = true;
            ::close(fd.value());
            return util::Status::Cancelled(
                "rank " + std::to_string(rank_) + " fenced: epoch " +
                std::to_string(epoch_) + " superseded by " +
                std::to_string(ack.value().epoch));
          }
        }
      }
      ::close(fd.value());
    }
    const auto delay = util::BackoffDelay(attempt++, kBackoffInitial,
                                          kBackoffCap, jitter_.Uniform());
    std::this_thread::sleep_for(
        std::min<SteadyClock::duration>(delay, deadline - SteadyClock::now()));
  }
}

util::StatusOr<std::vector<std::vector<float>>> SocketComm::Exchange(
    int rank, int64_t seq, std::vector<float> data,
    std::chrono::milliseconds timeout) {
  LLM_CHECK_EQ(rank, rank_) << "SocketComm is bound to one rank";
  const auto deadline = SteadyClock::now() + timeout;
  std::lock_guard<std::mutex> lock(mu_);

  Frame contribution;
  contribution.type = FrameType::kContribution;
  contribution.rank = rank_;
  contribution.epoch = epoch_;
  contribution.seq = seq;
  contribution.payload = EncodeFloats(data);

  const auto poison_and_timeout = [&]() -> util::Status {
    // Best effort: wake the other participants promptly. If the send
    // fails the server's poisoning falls to the next rank to time out.
    if (fd_ >= 0) {
      Frame poison;
      poison.type = FrameType::kPoison;
      poison.rank = rank_;
      poison.epoch = epoch_;
      poison.seq = seq;
      if (SendFrame(fd_, poison,
                    SteadyClock::now() + std::chrono::milliseconds(100))
              .ok()) {
        CountTx(poison);
      }
    }
    return util::Status::DeadlineExceeded(
        "collective " + std::to_string(seq) + " timed out at rank " +
        std::to_string(rank_) + " (socket transport)");
  };

  bool sent = false;
  while (true) {
    if (SteadyClock::now() >= deadline) return poison_and_timeout();
    util::Status conn = EnsureConnected(deadline);
    if (!conn.ok()) {
      if (conn.code() == util::StatusCode::kDeadlineExceeded) {
        return poison_and_timeout();
      }
      return conn;  // fenced
    }
    if (!sent) {
      util::Status pushed = SendFrame(fd_, contribution, deadline);
      if (!pushed.ok()) {
        CloseConn(/*dirty=*/true);
        continue;  // reconnect and re-send
      }
      CountTx(contribution);
      sent = true;
    }

    // Wait for this round's verdict.
    while (true) {
      auto frame = ReadFrame(fd_, deadline);
      if (!frame.ok()) {
        if (frame.status().code() == util::StatusCode::kDeadlineExceeded) {
          return poison_and_timeout();
        }
        // Connection lost (or stream desynced): reconnect and re-send;
        // the hub's cache of completed results answers if the round
        // completed while we were away.
        CloseConn(/*dirty=*/true);
        sent = false;
        break;
      }
      const Frame& f = frame.value();
      CountRx(f);
      if (f.type == FrameType::kAbort) {
        return util::Status::Cancelled(
            "collective " + std::to_string(seq) + " aborted at rank " +
            std::to_string(rank_) + " (epoch teardown)");
      }
      if (f.type == FrameType::kFenced) {
        fenced_ = true;
        CloseConn(/*dirty=*/false);
        return util::Status::Cancelled(
            "rank " + std::to_string(rank_) + " fenced mid-round: epoch " +
            std::to_string(epoch_) + " superseded by " +
            std::to_string(f.epoch));
      }
      if (f.seq != seq) continue;  // stale push from an earlier round
      if (f.type == FrameType::kError) {
        return util::Status(static_cast<util::StatusCode>(f.status),
                            std::string(f.payload.begin(), f.payload.end()));
      }
      if (f.type != FrameType::kResult) continue;
      if (!f.payload_ok) {
        // The *result* got corrupted on the way down. The hub holds a
        // good copy in its cache: drop the connection and re-ask.
        Metrics().crc_rejects->Increment();
        CloseConn(/*dirty=*/true);
        sent = false;
        break;
      }
      auto gathered = DecodeGather(f.payload);
      LLM_RETURN_IF_ERROR(gathered.status());
      if (static_cast<int>(gathered.value().size()) != world_size_) {
        return util::Status::Internal(
            "gather result has " + std::to_string(gathered.value().size()) +
            " buffers, want " + std::to_string(world_size_));
      }
      return std::move(gathered).value();
    }
  }
}

void SocketComm::SendBestEffort(Frame frame) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return;  // Exchange owns reconnection
  frame.rank = rank_;
  frame.epoch = epoch_;
  if (SendFrame(fd_, frame,
                SteadyClock::now() + std::chrono::milliseconds(100))
          .ok()) {
    CountTx(frame);
  } else {
    CloseConn(/*dirty=*/true);
  }
}

void SocketComm::Heartbeat(int rank) {
  LLM_CHECK_EQ(rank, rank_);
  Frame hb;
  hb.type = FrameType::kHeartbeat;
  SendBestEffort(std::move(hb));
}

void SocketComm::ShipTelemetry(int rank, const std::vector<uint8_t>& blob) {
  LLM_CHECK_EQ(rank, rank_);
  Frame tel;
  tel.type = FrameType::kTelemetry;
  tel.payload = blob;
  SendBestEffort(std::move(tel));
}

void SocketComm::Finish(int rank) {
  LLM_CHECK_EQ(rank, rank_);
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) {
    // One short-budget attempt so the coordinator can tell "finished"
    // from "died": without the goodbye a final-step disconnect looks
    // dirty and costs a needless fence.
    if (!EnsureConnected(SteadyClock::now() +
                         std::chrono::milliseconds(500))
             .ok()) {
      return;
    }
  }
  Frame bye;
  bye.type = FrameType::kGoodbye;
  bye.rank = rank_;
  bye.epoch = epoch_;
  if (SendFrame(fd_, bye,
                SteadyClock::now() + std::chrono::milliseconds(200))
          .ok()) {
    CountTx(bye);
  }
  CloseConn(/*dirty=*/false);
}

}  // namespace llm::train::dist
