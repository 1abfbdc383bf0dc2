// Wire protocol for the socket-backed collective transport.
//
// Everything that crosses a process boundary is a length-prefixed,
// CRC32-framed message with a fixed 44-byte little-endian header, written
// and read in field order through util/bytes.h:
//
//   u32 magic  u16 version  u16 type  i32 rank  i32 status
//   i64 epoch  i64 seq  u32 payload_len  u32 payload_crc  u32 header_crc
//
// The header carries its own CRC (over the first 40 bytes) so a torn or
// desynchronized stream is detected at the frame boundary, and the
// payload carries a separate CRC computed by the sender *before* the
// bytes hit the transport — a bit flipped in flight (or by the
// kSockCorruptFrame fault, which models exactly that) fails verification
// at the receiver and surfaces as a status, never as silently wrong
// gradients. The epoch stamp on every frame is the fencing substrate: a
// receiver drops — and answers with a fence — any frame from a stale
// spawn generation, so a worker that survived a recovery it should have
// died in cannot corrupt a live round.
//
// All IO here is deadline-bounded: sockets run non-blocking and every
// partial read/write waits in poll() against the caller's absolute
// deadline, so no syscall can park a worker past its collective timeout.
//
// Fault sites (fired by the sending side, in SendFrame):
//   kSockDrop          the frame is silently never written
//   kSockCorruptFrame  one payload bit flips after the CRC was taken
//   kSockStallWrite    the sender sleeps before writing (straggler wire)
//   kSockDisconnect    the connection closes instead of sending
#ifndef TFMR_TRAIN_DIST_WIRE_H_
#define TFMR_TRAIN_DIST_WIRE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace llm::train::dist {

using SteadyClock = std::chrono::steady_clock;

/// Frame types. Keep in sync with FrameTypeName().
enum class FrameType : uint16_t {
  kHello = 1,         // client -> server: rank announces itself + epoch
  kHelloAck = 2,      // server -> client: registration accepted
  kContribution = 3,  // client -> server: Exchange payload (floats)
  kResult = 4,        // server -> client: gathered round (EncodeGather)
  kError = 5,         // server -> client: round failed; status code in
                      //   header, its message as the payload
  kHeartbeat = 6,     // client -> server: liveness tick
  kPoison = 7,        // client -> server: my wait on `seq` expired
  kFenced = 8,        // server -> client: your epoch is stale; go away
  kAbort = 9,         // server -> client: epoch torn down
  kGoodbye = 10,      // client -> server: orderly exit (loop completed)
  kTelemetry = 11,    // client -> server: encoded obs::RankTelemetry blob
                      //   (opaque to the wire; best-effort, like
                      //   heartbeats — a dropped unit costs visibility,
                      //   never correctness)
};

const char* FrameTypeName(FrameType type);

inline constexpr uint32_t kWireMagic = 0x54464D57u;  // "TFMW"
inline constexpr uint16_t kWireVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 44;
/// Sanity bound; anything larger is treated as a corrupt stream.
inline constexpr uint32_t kMaxFramePayload = 1u << 28;  // 256 MiB

struct Frame {
  FrameType type = FrameType::kHello;
  int32_t rank = -1;
  /// For kError: the util::StatusCode the round failed with. Otherwise 0.
  int32_t status = 0;
  int64_t epoch = 0;
  int64_t seq = 0;
  std::vector<uint8_t> payload;
  /// Set by ReadFrame: false when the framing was intact but the payload
  /// failed its CRC — i.e. corruption in transport, not a desynced
  /// stream. The connection is still usable; the *round* is not.
  bool payload_ok = true;
};

// ---------------------------------------------------------------------------
// Frame IO. `fd` must be a non-blocking stream socket.
// ---------------------------------------------------------------------------

/// Writes one frame, honoring `deadline` across partial writes. Injects
/// the kSock* fault sites (see header comment); a fired kSockDrop returns
/// OK without writing, a fired kSockDisconnect shuts the socket down and
/// returns kUnavailable-style IOError.
util::Status SendFrame(int fd, const Frame& frame,
                       SteadyClock::time_point deadline);

/// Reads one frame, honoring `deadline` across partial reads. Returns
/// kDeadlineExceeded when the deadline expires mid-frame, kIOError on a
/// closed/reset connection, and kInternal on a bad magic, header CRC, or
/// oversized payload (the stream is desynced — the caller must drop the
/// connection). A payload-CRC mismatch with intact framing is NOT an
/// error return: the frame comes back with payload_ok == false so the
/// receiver can fail the round (kInternal to every rank) while keeping
/// the connection.
util::StatusOr<Frame> ReadFrame(int fd, SteadyClock::time_point deadline);

// ---------------------------------------------------------------------------
// Payload codecs.
// ---------------------------------------------------------------------------

/// Float vector <-> bytes, little-endian through util/bytes.h. Decoding
/// drops a trailing partial float.
std::vector<uint8_t> EncodeFloats(const std::vector<float>& values);
std::vector<float> DecodeFloats(const std::vector<uint8_t>& bytes);

/// Gathered round <-> bytes: u32 count, u32 len[count] (floats), then the
/// concatenated buffers. Rank buffers may have different lengths (the
/// parameter all-gather does).
std::vector<uint8_t> EncodeGather(
    const std::vector<std::vector<float>>& bufs);
util::StatusOr<std::vector<std::vector<float>>> DecodeGather(
    const std::vector<uint8_t>& bytes);

// ---------------------------------------------------------------------------
// Connection establishment. `address` is either a filesystem path (a
// Unix-domain socket) or "tcp://HOST:PORT" (TCP with TCP_NODELAY).
// ---------------------------------------------------------------------------

/// Binds + listens. For Unix sockets, unlinks a stale path first; for
/// "tcp://HOST:0", binds an ephemeral port. On success `*bound_address`
/// (if non-null) receives the resolved address (with the real port) that
/// clients should connect to. The returned fd is non-blocking.
util::StatusOr<int> ListenOn(const std::string& address,
                             std::string* bound_address);

/// Connects with a deadline; the returned fd is non-blocking.
util::StatusOr<int> ConnectTo(const std::string& address,
                              SteadyClock::time_point deadline);

}  // namespace llm::train::dist

#endif  // TFMR_TRAIN_DIST_WIRE_H_
