// Low-level socket plumbing shared by the SocketTransport data mesh and
// the fleetd control plane: address parsing ("unix:<path>" and
// "tcp:<host>:<port>"), listen/dial with retry, and length-prefixed frame
// I/O over blocking fds.
//
// Framing is one versioned header per frame —
//   [u32 magic "CMDF"][u16 version][u16 type][u32 body length][body]
// — so both planes reject cross-version or garbage peers at the first
// frame instead of desynchronizing mid-stream. Bodies are ByteWriter
// streams (native-endian, same-machine wire like the checkpoint format).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace comdml::comm {

/// A parsed endpoint address. Unix-domain is the default transport (fleet
/// processes share a machine); TCP is for crossing hosts, with port 0
/// meaning "bind an ephemeral port and report it via bound address".
struct SocketAddress {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;  ///< unix
  std::string host;  ///< tcp
  int port = 0;      ///< tcp
  [[nodiscard]] std::string str() const;
};

/// Parse "unix:/path/to.sock" or "tcp:host:port". Throws on anything else.
[[nodiscard]] SocketAddress parse_address(const std::string& spec);

/// Bind + listen on `addr`. For unix addresses a stale socket file is
/// unlinked first; for tcp, port 0 binds an ephemeral port. The concrete
/// bound address (with the real port) is written to `bound` when non-null.
/// Returns the listening fd; throws on failure.
[[nodiscard]] int listen_on(const SocketAddress& addr,
                            SocketAddress* bound = nullptr);

/// Connect to `addr`, retrying with a short sleep until `timeout_sec`
/// elapses — the peer's listener may not exist yet (process startup
/// races). Each attempt uses a non-blocking connect with a poll so a
/// black-holed TCP target cannot eat the whole budget. Returns the
/// connected fd, or -1 on timeout.
[[nodiscard]] int dial(const SocketAddress& addr, double timeout_sec);

/// One connect attempt, no retry loop. Returns the connected fd, or -1
/// with `*err_out` (when non-null) set to the connect errno — callers that
/// want to fail fast can distinguish ECONNREFUSED (a stale unix socket
/// file nobody listens on) from ENOENT (no socket file at all).
[[nodiscard]] int dial_once(const SocketAddress& addr, int* err_out = nullptr);

/// Accept one connection; -1 on error/shutdown. The listening fd is polled
/// so closing it (or flipping `*running` to false) unblocks the accept
/// loop within one poll interval.
[[nodiscard]] int accept_on(int listen_fd,
                            const std::atomic<bool>* running = nullptr);

/// Loop write(2) until all `len` bytes are out; false on error (EPIPE —
/// the peer is gone).
[[nodiscard]] bool write_all(int fd, const void* data, size_t len);

/// Loop read(2) until `len` bytes arrived; false on EOF or error.
[[nodiscard]] bool read_exact(int fd, void* data, size_t len);

void close_fd(int fd) noexcept;

// ---- frames -----------------------------------------------------------------

inline constexpr uint32_t kFrameMagic = 0x434D4446;  // "CMDF"
/// Version 4: the data frame's checksum field holds tensor::checksum of
/// the payload bytes, which folds the byte length (version 3 folded the
/// element count; version 2 carried FNV-1a), so mixed binaries are
/// refused at the first frame instead of discarding every payload as
/// corrupt. Version 5: every fleetd data-mesh layout is one MeshLayout
/// record (live workers + addresses) with no mesh generation, and kStart
/// now names the live workers too.
inline constexpr uint16_t kWireVersion = 5;
/// Upper bound on a frame body — rejects desynchronized/garbage peers
/// before a bad length turns into a huge allocation.
inline constexpr uint32_t kMaxFrameBody = 1u << 30;

struct WireFrame {
  uint16_t type = 0;
  std::vector<uint8_t> body;
};

/// Write one frame. When `write_mutex` is non-null the header+body write
/// is serialized under it (several threads sharing one peer fd).
/// Returns false when the peer is gone.
[[nodiscard]] bool send_frame(int fd, uint16_t type,
                              const std::vector<uint8_t>& body,
                              std::mutex* write_mutex = nullptr);

/// Read one frame; nullopt on EOF/error. Throws std::runtime_error on a
/// magic or version mismatch (a mis-wired or incompatible peer, not a
/// clean shutdown).
[[nodiscard]] std::optional<WireFrame> recv_frame(int fd);

}  // namespace comdml::comm
