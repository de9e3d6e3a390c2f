#include "serve/protocol.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

namespace hypertree::serve {

namespace {

void SetError(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
}

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

// Writes all of `data` (retrying short writes / EINTR).
bool WriteAll(int fd, const char* data, size_t len, std::string* error) {
  size_t off = 0;
  while (off < len) {
    ssize_t w = ::write(fd, data + off, len - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      SetError(error, Errno("write"));
      return false;
    }
    off += static_cast<size_t>(w);
  }
  return true;
}

// Reads exactly `len` bytes. Returns 1 on success, 0 on EOF before the
// first byte, -1 on error or mid-buffer EOF.
int ReadExact(int fd, char* data, size_t len, std::string* error) {
  size_t off = 0;
  while (off < len) {
    ssize_t r = ::read(fd, data + off, len - off);
    if (r < 0) {
      if (errno == EINTR) continue;
      SetError(error, Errno("read"));
      return -1;
    }
    if (r == 0) {
      if (off == 0) return 0;
      SetError(error, "truncated frame (connection closed mid-frame)");
      return -1;
    }
    off += static_cast<size_t>(r);
  }
  return 1;
}

}  // namespace

bool WriteFrame(int fd, const std::string& body, std::string* error) {
  if (body.size() > kMaxFrameBytes) {
    SetError(error, "frame body exceeds " + std::to_string(kMaxFrameBytes) +
                        " bytes");
    return false;
  }
  // Header and body go out in one write: split writes leave the body
  // waiting on the peer's delayed ACK (Nagle), ~40 ms per frame.
  uint32_t len = static_cast<uint32_t>(body.size());
  std::string frame;
  frame.reserve(4 + body.size());
  frame.push_back(static_cast<char>(len >> 24));
  frame.push_back(static_cast<char>(len >> 16));
  frame.push_back(static_cast<char>(len >> 8));
  frame.push_back(static_cast<char>(len));
  frame += body;
  return WriteAll(fd, frame.data(), frame.size(), error);
}

int ReadFrame(int fd, std::string* body, std::string* error,
              size_t max_frame) {
  unsigned char header[4];
  int r = ReadExact(fd, reinterpret_cast<char*>(header), 4, error);
  if (r <= 0) return r;
  uint32_t len = (static_cast<uint32_t>(header[0]) << 24) |
                 (static_cast<uint32_t>(header[1]) << 16) |
                 (static_cast<uint32_t>(header[2]) << 8) |
                 static_cast<uint32_t>(header[3]);
  if (len > max_frame) {
    SetError(error, "frame of " + std::to_string(len) +
                        " bytes exceeds the " + std::to_string(max_frame) +
                        "-byte limit");
    return -1;
  }
  body->resize(len);
  if (len == 0) return 1;
  r = ReadExact(fd, body->data(), len, error);
  if (r == 0) {
    SetError(error, "truncated frame (connection closed after header)");
    return -1;
  }
  return r;
}

int ListenLoopback(int port, int* bound_port, std::string* error) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    SetError(error, Errno("socket"));
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    SetError(error, Errno("bind 127.0.0.1:" + std::to_string(port)));
    ::close(fd);
    return -1;
  }
  if (::listen(fd, 16) < 0) {
    SetError(error, Errno("listen"));
    ::close(fd);
    return -1;
  }
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
      SetError(error, Errno("getsockname"));
      ::close(fd);
      return -1;
    }
    *bound_port = static_cast<int>(ntohs(bound.sin_port));
  }
  return fd;
}

int ConnectLoopback(int port, std::string* error) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    SetError(error, Errno("socket"));
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  while (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (errno == EINTR) continue;
    SetError(error, Errno("connect 127.0.0.1:" + std::to_string(port)));
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace hypertree::serve
