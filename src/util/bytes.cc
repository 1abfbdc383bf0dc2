#include "util/bytes.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace llm::util {
namespace {

Status Errno(const std::string& what, const std::string& path) {
  return Status::IOError(what + ": " + path + ": " + std::strerror(errno));
}

}  // namespace

void ByteWriter::String(const std::string& s) {
  Put(static_cast<uint32_t>(s.size()));
  Bytes(s.data(), s.size());
}

void ByteWriter::Bytes(const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  bytes_.insert(bytes_.end(), p, p + len);
}

bool ByteReader::String(std::string* s, size_t max_len) {
  const size_t start = pos_;
  uint32_t len = 0;
  if (!Get(&len) || len > max_len || len > remaining()) {
    pos_ = start;
    return false;
  }
  s->assign(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
  pos_ += len;
  return true;
}

bool ByteReader::Bytes(void* out, size_t len) {
  if (len > remaining()) return false;
  if (len > 0) std::memcpy(out, bytes_.data() + pos_, len);
  pos_ += len;
  return true;
}

Status WriteFile(const std::string& path, std::span<const uint8_t> bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("cannot open for write", path);
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      const Status failed = Errno("write failed", path);
      ::close(fd);
      return failed;
    }
    off += static_cast<size_t>(n);
  }
  if (::close(fd) != 0) return Errno("close failed", path);
  return Status::OK();
}

Status ReplaceFile(const std::string& path, std::span<const uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  Status s = WriteFile(tmp, bytes);
  if (s.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    s = Errno("rename failed", tmp + " -> " + path);
  }
  if (!s.ok()) std::remove(tmp.c_str());
  return s;
}

StatusOr<std::vector<uint8_t>> ReadFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no file at " + path);
    return Errno("cannot open for read", path);
  }
  std::vector<uint8_t> bytes;
  struct stat st {};
  if (::fstat(fd, &st) == 0) bytes.reserve(static_cast<size_t>(st.st_size));
  uint8_t buf[1 << 16];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      const Status failed = Errno("read failed", path);
      ::close(fd);
      return failed;
    }
    if (n == 0) break;
    bytes.insert(bytes.end(), buf, buf + n);
  }
  ::close(fd);
  return bytes;
}

}  // namespace llm::util
