// Wire protocol for the decomposition service: length-prefixed frames
// carrying NDJSON bodies over a loopback TCP socket.
//
// Frame layout: 4-byte big-endian unsigned body length, then exactly
// that many bytes of UTF-8 JSON (one request or response document, no
// trailing newline required). Requests and responses alternate per
// frame on one connection; a client may keep the connection open and
// pipeline sequential requests. See docs/SERVING.md for the request and
// response schemas.

#ifndef HYPERTREE_SERVE_PROTOCOL_H_
#define HYPERTREE_SERVE_PROTOCOL_H_

#include <cstddef>
#include <string>

namespace hypertree::serve {

/// Frames larger than this are rejected on both ends (a malformed or
/// hostile length prefix must not trigger a giant allocation).
inline constexpr size_t kMaxFrameBytes = size_t{64} << 20;

/// Writes one frame to `fd`, header and body in one write (handles
/// short writes and EINTR), so neither side needs socket options to
/// avoid a delayed-ACK stall. Returns false and sets `*error` on failure
/// or oversized bodies.
bool WriteFrame(int fd, const std::string& body, std::string* error);

/// Reads one frame from `fd`. Returns 1 and fills `*body` on success, 0
/// on clean EOF at a frame boundary, -1 (with `*error`) on malformed or
/// truncated input.
int ReadFrame(int fd, std::string* body, std::string* error,
              size_t max_frame = kMaxFrameBytes);

/// Creates a TCP listener bound to 127.0.0.1:`port` (0 picks an
/// ephemeral port). Returns the listening fd and stores the bound port
/// in `*bound_port`; -1 with `*error` on failure.
int ListenLoopback(int port, int* bound_port, std::string* error);

/// Connects to 127.0.0.1:`port`. Returns the connected fd, or -1 with
/// `*error`.
int ConnectLoopback(int port, std::string* error);

}  // namespace hypertree::serve

#endif  // HYPERTREE_SERVE_PROTOCOL_H_
