#include "train/dist/wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>
#include <thread>

#include "util/bytes.h"
#include "util/crc32.h"
#include "util/fault.h"

namespace llm::train::dist {
namespace {

int RemainingMs(SteadyClock::time_point deadline) {
  const auto left = deadline - SteadyClock::now();
  if (left <= SteadyClock::duration::zero()) return 0;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(left).count();
  return static_cast<int>(std::min<int64_t>(ms + 1, 60'000));
}

/// Writes all of buf[0..len), polling for writability against the
/// deadline. MSG_NOSIGNAL: a peer that died mid-round must surface as
/// EPIPE, not kill the process.
util::Status WriteAll(int fd, const uint8_t* buf, size_t len,
                      SteadyClock::time_point deadline) {
  size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, buf + off, len - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const int wait_ms = RemainingMs(deadline);
      if (wait_ms == 0) {
        return util::Status::DeadlineExceeded("socket write deadline");
      }
      struct pollfd pfd{fd, POLLOUT, 0};
      const int rc = ::poll(&pfd, 1, wait_ms);
      if (rc < 0 && errno != EINTR) {
        return util::Status::IOError("poll(POLLOUT): " +
                                     std::string(std::strerror(errno)));
      }
      continue;
    }
    return util::Status::IOError("socket write: " +
                                 std::string(std::strerror(errno)));
  }
  return util::Status::OK();
}

/// Reads exactly len bytes; kIOError with "connection closed" on EOF.
util::Status ReadAll(int fd, uint8_t* buf, size_t len,
                     SteadyClock::time_point deadline) {
  size_t off = 0;
  while (off < len) {
    const ssize_t n = ::recv(fd, buf + off, len - off, 0);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) {
      return util::Status::IOError("connection closed by peer");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      const int wait_ms = RemainingMs(deadline);
      if (wait_ms == 0) {
        return util::Status::DeadlineExceeded("socket read deadline");
      }
      struct pollfd pfd{fd, POLLIN, 0};
      const int rc = ::poll(&pfd, 1, wait_ms);
      if (rc < 0 && errno != EINTR) {
        return util::Status::IOError("poll(POLLIN): " +
                                     std::string(std::strerror(errno)));
      }
      continue;
    }
    return util::Status::IOError("socket read: " +
                                 std::string(std::strerror(errno)));
  }
  return util::Status::OK();
}

util::Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return util::Status::IOError("fcntl(O_NONBLOCK): " +
                                 std::string(std::strerror(errno)));
  }
  return util::Status::OK();
}

constexpr const char* kTcpPrefix = "tcp://";

bool IsTcpAddress(const std::string& address) {
  return address.rfind(kTcpPrefix, 0) == 0;
}

util::Status ParseTcp(const std::string& address, std::string* host,
                      uint16_t* port) {
  const std::string rest = address.substr(std::strlen(kTcpPrefix));
  const size_t colon = rest.find_last_of(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == rest.size()) {
    return util::Status::InvalidArgument("bad tcp address: " + address);
  }
  *host = rest.substr(0, colon);
  long p = 0;
  for (size_t i = colon + 1; i < rest.size(); ++i) {
    if (rest[i] < '0' || rest[i] > '9') {
      return util::Status::InvalidArgument("bad tcp port in " + address);
    }
    p = p * 10 + (rest[i] - '0');
  }
  if (p < 0 || p > 65535) {
    return util::Status::InvalidArgument("tcp port out of range: " +
                                         address);
  }
  *port = static_cast<uint16_t>(p);
  return util::Status::OK();
}

}  // namespace

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "hello";
    case FrameType::kHelloAck: return "hello-ack";
    case FrameType::kContribution: return "contribution";
    case FrameType::kResult: return "result";
    case FrameType::kError: return "error";
    case FrameType::kHeartbeat: return "heartbeat";
    case FrameType::kPoison: return "poison";
    case FrameType::kFenced: return "fenced";
    case FrameType::kAbort: return "abort";
    case FrameType::kGoodbye: return "goodbye";
    case FrameType::kTelemetry: return "telemetry";
  }
  return "unknown";
}

util::Status SendFrame(int fd, const Frame& frame,
                       SteadyClock::time_point deadline) {
  // Fault sites model the transport misbehaving *after* the sender
  // computed its checksums — exactly what the receiver must catch.
  if (util::MaybeInjectFault(util::FaultSite::kSockStallWrite)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
  }
  if (util::MaybeInjectFault(util::FaultSite::kSockDisconnect)) {
    ::shutdown(fd, SHUT_RDWR);
    return util::Status::IOError("injected disconnect before send");
  }
  if (util::MaybeInjectFault(util::FaultSite::kSockDrop)) {
    return util::Status::OK();  // the frame vanishes in transport
  }

  const uint32_t payload_crc =
      util::Crc32(frame.payload.data(), frame.payload.size());
  const uint8_t* payload = frame.payload.data();
  std::vector<uint8_t> corrupted;
  if (util::MaybeInjectFault(util::FaultSite::kSockCorruptFrame) &&
      !frame.payload.empty()) {
    corrupted = frame.payload;
    corrupted[corrupted.size() / 2] ^= 0x10;  // one bit, after the CRC
    payload = corrupted.data();
  }

  util::ByteWriter header(kFrameHeaderBytes);
  header.Put(kWireMagic);
  header.Put(kWireVersion);
  header.Put(static_cast<uint16_t>(frame.type));
  header.Put(frame.rank);
  header.Put(frame.status);
  header.Put(frame.epoch);
  header.Put(frame.seq);
  header.Put(static_cast<uint32_t>(frame.payload.size()));
  header.Put(payload_crc);
  header.Put(util::Crc32(header.bytes().data(), header.bytes().size()));

  LLM_RETURN_IF_ERROR(
      WriteAll(fd, header.bytes().data(), kFrameHeaderBytes, deadline));
  if (!frame.payload.empty()) {
    LLM_RETURN_IF_ERROR(
        WriteAll(fd, payload, frame.payload.size(), deadline));
  }
  return util::Status::OK();
}

util::StatusOr<Frame> ReadFrame(int fd, SteadyClock::time_point deadline) {
  uint8_t header[kFrameHeaderBytes];
  LLM_RETURN_IF_ERROR(ReadAll(fd, header, kFrameHeaderBytes, deadline));
  // The header holds every field, so none of these reads can fail.
  util::ByteReader r(header);
  Frame frame;
  uint32_t magic = 0, payload_len = 0, payload_crc = 0, header_crc = 0;
  uint16_t version = 0, type = 0;
  r.Get(&magic);
  r.Get(&version);
  r.Get(&type);
  r.Get(&frame.rank);
  r.Get(&frame.status);
  r.Get(&frame.epoch);
  r.Get(&frame.seq);
  r.Get(&payload_len);
  r.Get(&payload_crc);
  const size_t crc_covers = r.pos();
  r.Get(&header_crc);
  if (magic != kWireMagic) {
    return util::Status::Internal("frame magic mismatch (desynced stream)");
  }
  if (version != kWireVersion) {
    return util::Status::Internal("frame version mismatch: " +
                                  std::to_string(version));
  }
  if (header_crc != util::Crc32(header, crc_covers)) {
    return util::Status::Internal("frame header checksum mismatch");
  }
  if (payload_len > kMaxFramePayload) {
    return util::Status::Internal("frame payload oversized: " +
                                  std::to_string(payload_len));
  }

  frame.type = static_cast<FrameType>(type);
  frame.payload.resize(payload_len);
  if (payload_len > 0) {
    LLM_RETURN_IF_ERROR(
        ReadAll(fd, frame.payload.data(), payload_len, deadline));
  }
  // The framing was intact (length honored, stream still aligned), so a
  // payload-CRC mismatch is corruption-in-transport: report it in-band so
  // the round fails with kInternal while the connection survives.
  frame.payload_ok = util::Crc32(frame.payload.data(),
                                 frame.payload.size()) == payload_crc;
  return frame;
}

std::vector<uint8_t> EncodeFloats(const std::vector<float>& values) {
  util::ByteWriter w(sizeof(float) * values.size());
  w.Bytes(values.data(), sizeof(float) * values.size());
  return w.Take();
}

std::vector<float> DecodeFloats(const std::vector<uint8_t>& bytes) {
  std::vector<float> values(bytes.size() / sizeof(float));
  util::ByteReader(bytes).Bytes(values.data(), sizeof(float) * values.size());
  return values;
}

std::vector<uint8_t> EncodeGather(
    const std::vector<std::vector<float>>& bufs) {
  size_t total = 0;
  for (const auto& b : bufs) total += b.size();
  util::ByteWriter w(4 + 4 * bufs.size() + sizeof(float) * total);
  w.Put(static_cast<uint32_t>(bufs.size()));
  for (const auto& b : bufs) w.Put(static_cast<uint32_t>(b.size()));
  for (const auto& b : bufs) w.Bytes(b.data(), b.size() * sizeof(float));
  return w.Take();
}

util::StatusOr<std::vector<std::vector<float>>> DecodeGather(
    const std::vector<uint8_t>& bytes) {
  util::ByteReader r(bytes);
  uint32_t count = 0;
  if (!r.Get(&count)) {
    return util::Status::Internal("gather payload truncated (no count)");
  }
  if (count > 4096 || r.remaining() < 4 * static_cast<size_t>(count)) {
    return util::Status::Internal("gather payload truncated (size table)");
  }
  std::vector<uint32_t> lens(count);
  r.Bytes(lens.data(), 4 * lens.size());  // fits: checked above
  size_t total = 0;
  for (const uint32_t len : lens) total += len;
  if (r.remaining() != sizeof(float) * total) {
    return util::Status::Internal("gather payload length mismatch");
  }
  std::vector<std::vector<float>> bufs(count);
  for (uint32_t i = 0; i < count; ++i) {
    bufs[i].resize(lens[i]);
    r.Bytes(bufs[i].data(), sizeof(float) * lens[i]);  // fits: checked above
  }
  return bufs;
}

util::StatusOr<int> ListenOn(const std::string& address,
                             std::string* bound_address) {
  int fd = -1;
  if (IsTcpAddress(address)) {
    std::string host;
    uint16_t port = 0;
    LLM_RETURN_IF_ERROR(ParseTcp(address, &host, &port));
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return util::Status::IOError("socket(AF_INET): " +
                                   std::string(std::strerror(errno)));
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    struct sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      ::close(fd);
      return util::Status::InvalidArgument(
          "tcp host must be a numeric IPv4 address: " + host);
    }
    if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr),
               sizeof(addr)) < 0) {
      const std::string err = std::strerror(errno);
      ::close(fd);
      return util::Status::IOError("bind(" + address + "): " + err);
    }
    if (bound_address != nullptr) {
      struct sockaddr_in actual{};
      socklen_t len = sizeof(actual);
      if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&actual),
                        &len) == 0) {
        *bound_address = std::string(kTcpPrefix) + host + ":" +
                         std::to_string(ntohs(actual.sin_port));
      } else {
        *bound_address = address;
      }
    }
  } else {
    if (address.size() >= sizeof(sockaddr_un{}.sun_path)) {
      return util::Status::InvalidArgument(
          "unix socket path too long: " + address);
    }
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return util::Status::IOError("socket(AF_UNIX): " +
                                   std::string(std::strerror(errno)));
    }
    ::unlink(address.c_str());  // a stale path from a dead server
    struct sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, address.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr),
               sizeof(addr)) < 0) {
      const std::string err = std::strerror(errno);
      ::close(fd);
      return util::Status::IOError("bind(" + address + "): " + err);
    }
    if (bound_address != nullptr) *bound_address = address;
  }
  if (::listen(fd, 64) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return util::Status::IOError("listen(" + address + "): " + err);
  }
  util::Status nb = SetNonBlocking(fd);
  if (!nb.ok()) {
    ::close(fd);
    return nb;
  }
  return fd;
}

util::StatusOr<int> ConnectTo(const std::string& address,
                              SteadyClock::time_point deadline) {
  int fd = -1;
  struct sockaddr_storage storage{};
  socklen_t addr_len = 0;
  if (IsTcpAddress(address)) {
    std::string host;
    uint16_t port = 0;
    LLM_RETURN_IF_ERROR(ParseTcp(address, &host, &port));
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return util::Status::IOError("socket(AF_INET): " +
                                   std::string(std::strerror(errno)));
    }
    auto* addr = reinterpret_cast<struct sockaddr_in*>(&storage);
    addr->sin_family = AF_INET;
    addr->sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) != 1) {
      ::close(fd);
      return util::Status::InvalidArgument(
          "tcp host must be a numeric IPv4 address: " + host);
    }
    addr_len = sizeof(struct sockaddr_in);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  } else {
    if (address.size() >= sizeof(sockaddr_un{}.sun_path)) {
      return util::Status::InvalidArgument(
          "unix socket path too long: " + address);
    }
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return util::Status::IOError("socket(AF_UNIX): " +
                                   std::string(std::strerror(errno)));
    }
    auto* addr = reinterpret_cast<struct sockaddr_un*>(&storage);
    addr->sun_family = AF_UNIX;
    std::strncpy(addr->sun_path, address.c_str(),
                 sizeof(addr->sun_path) - 1);
    addr_len = sizeof(struct sockaddr_un);
  }
  {
    util::Status nb = SetNonBlocking(fd);
    if (!nb.ok()) {
      ::close(fd);
      return nb;
    }
  }
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&storage),
                addr_len) < 0) {
    if (errno != EINPROGRESS && errno != EAGAIN) {
      const std::string err = std::strerror(errno);
      ::close(fd);
      return util::Status::IOError("connect(" + address + "): " + err);
    }
    // Async connect: wait for writability, then read the verdict.
    while (true) {
      const int wait_ms = RemainingMs(deadline);
      if (wait_ms == 0) {
        ::close(fd);
        return util::Status::DeadlineExceeded("connect(" + address +
                                              ") deadline");
      }
      struct pollfd pfd{fd, POLLOUT, 0};
      const int rc = ::poll(&pfd, 1, wait_ms);
      if (rc < 0 && errno == EINTR) continue;
      if (rc < 0) {
        const std::string err = std::strerror(errno);
        ::close(fd);
        return util::Status::IOError("poll(connect): " + err);
      }
      if (rc > 0) break;
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) < 0 ||
        so_error != 0) {
      ::close(fd);
      return util::Status::IOError(
          "connect(" + address +
          "): " + std::strerror(so_error != 0 ? so_error : errno));
    }
  }
  return fd;
}

}  // namespace llm::train::dist
