#ifndef DATACELL_NET_SOCKET_H_
#define DATACELL_NET_SOCKET_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "net/framing.h"
#include "util/status.h"

namespace datacell::net {

/// Thread-safe spelling of strerror(err): strerror's static buffer makes
/// it unusable from concurrent gateway/actuator threads.
std::string ErrnoString(int err);

/// A connected TCP byte stream with line-oriented helpers. Move-only; the
/// destructor closes the descriptor.
class TcpStream {
 public:
  TcpStream() = default;
  explicit TcpStream(int fd) : fd_(fd) {}
  ~TcpStream();

  TcpStream(TcpStream&& other) noexcept;
  TcpStream& operator=(TcpStream&& other) noexcept;
  TcpStream(const TcpStream&) = delete;
  TcpStream& operator=(const TcpStream&) = delete;

  /// Connects to host:port (IPv4 dotted or "localhost").
  static Result<TcpStream> Connect(const std::string& host, uint16_t port);

  bool valid() const { return fd_ >= 0; }

  /// Writes the whole buffer (loops over partial writes).
  Status WriteAll(const std::string& data);

  /// Reads up to the next '\n' (stripped). Returns NotFound on clean EOF
  /// with no pending data; IOError otherwise.
  Result<std::string> ReadLine();

  /// --- Reactor-mode primitives (gateway event loop) -----------------------
  /// Raw descriptor for poll(); -1 when invalid.
  int fd() const { return fd_; }

  /// Sets O_NONBLOCK on the descriptor.
  Status SetNonBlocking(bool enabled);

  /// One non-blocking recv() appended to the read-ahead buffer. Returns the
  /// number of bytes read, 0 when the read would block, NotFound on clean
  /// EOF, IOError otherwise. Never loops: the caller's poll() decides when
  /// to try again.
  Result<size_t> FillFromSocket();

  /// Extracts the next complete ('\n'-terminated) line from the read-ahead
  /// buffer without touching the socket; nullopt when none is buffered. The
  /// view lives until the next call that reads or fills the buffer.
  std::optional<std::string_view> PopBufferedLine();

  /// Drains whatever trails the last newline — the torn partial line a peer
  /// leaves behind when it disconnects mid-tuple. Same lifetime as
  /// PopBufferedLine's view.
  std::string_view TakeBufferedRemainder();

  /// Half-closes the write side, signalling EOF to the peer.
  Status ShutdownWrite();

  void Close();

 private:
  int fd_ = -1;
  LineFramer framer_;  // read-ahead line framing (shared with the fuzzers)
};

/// A listening TCP socket.
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();

  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Binds to 127.0.0.1:port (0 picks an ephemeral port) and listens.
  static Result<TcpListener> Bind(uint16_t port);

  uint16_t port() const { return port_; }

  /// Blocks until a client connects.
  Result<TcpStream> Accept();

  /// Raw descriptor for poll(); -1 when closed.
  int fd() const { return fd_; }

  /// Sets O_NONBLOCK so Accept-style calls never park the reactor.
  Status SetNonBlocking(bool enabled);

  /// Accepts a pending connection, or nullopt when none is queued. Never
  /// blocks (pair with poll() on fd()).
  Result<std::optional<TcpStream>> TryAccept();

  void Close();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace datacell::net

#endif  // DATACELL_NET_SOCKET_H_
