#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace datacell::net {

namespace {

// strerror_r comes in two flavours; overload resolution picks the right
// unpacking. GNU returns the message pointer (not always `buf`), XSI
// fills `buf` and returns 0 on success.
std::string ErrnoMessage(const char* ret, const char* /*buf*/) { return ret; }
std::string ErrnoMessage(int ret, const char* buf) {
  return ret == 0 ? buf : "unknown error";
}

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + ErrnoString(errno));
}

// How long WriteAll waits for a full send buffer to drain before giving
// up on the peer. Bounded so a dead-but-not-RST peer cannot wedge a
// reactor thread forever; generous enough that a merely slow reader (the
// backpressure case) always gets its bytes.
constexpr int kWriteStallTimeoutMs = 10'000;

}  // namespace

std::string ErrnoString(int err) {
  char buf[128] = "unknown error";
  return ErrnoMessage(strerror_r(err, buf, sizeof(buf)), buf);
}

TcpStream::~TcpStream() { Close(); }

TcpStream::TcpStream(TcpStream&& other) noexcept
    : fd_(other.fd_), framer_(std::move(other.framer_)) {
  other.fd_ = -1;
}

TcpStream& TcpStream::operator=(TcpStream&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    framer_ = std::move(other.framer_);
    other.fd_ = -1;
  }
  return *this;
}

Result<TcpStream> TcpStream::Connect(const std::string& host, uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const char* ip = (host == "localhost") ? "127.0.0.1" : host.c_str();
  if (::inet_pton(AF_INET, ip, &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Errno("connect");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpStream(fd);
}

Status TcpStream::WriteAll(const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Non-blocking socket with a full send buffer (the gateway puts
        // every accepted connection in non-blocking mode): wait for the
        // peer to drain and resume instead of failing the write.
        pollfd p{fd_, POLLOUT, 0};
        int rc = ::poll(&p, 1, kWriteStallTimeoutMs);
        if (rc < 0) {
          if (errno == EINTR) continue;
          return Errno("poll(POLLOUT)");
        }
        if (rc == 0) {
          return Status::IOError("send stalled: peer not draining");
        }
        continue;
      }
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<std::string> TcpStream::ReadLine() {
  while (true) {
    if (std::optional<std::string> line = framer_.NextLine()) {
      return std::move(*line);
    }
    char chunk[4096];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    if (n == 0) {
      const std::string_view tail = framer_.TakeRemainder();
      if (!tail.empty()) return std::string(tail);
      return Status::NotFound("eof");
    }
    framer_.Append({chunk, static_cast<size_t>(n)});
  }
}

Status TcpStream::SetNonBlocking(bool enabled) {
  if (fd_ < 0) return Status::InvalidArgument("stream not open");
  int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  flags = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd_, F_SETFL, flags) < 0) return Errno("fcntl(F_SETFL)");
  return Status::OK();
}

Result<size_t> TcpStream::FillFromSocket() {
  char chunk[16384];
  while (true) {
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return size_t{0};
      return Errno("recv");
    }
    if (n == 0) return Status::NotFound("eof");
    framer_.Append({chunk, static_cast<size_t>(n)});
    return static_cast<size_t>(n);
  }
}

std::optional<std::string_view> TcpStream::PopBufferedLine() {
  return framer_.NextView();
}

std::string_view TcpStream::TakeBufferedRemainder() {
  return framer_.TakeRemainder();
}

Status TcpStream::ShutdownWrite() {
  if (fd_ >= 0 && ::shutdown(fd_, SHUT_WR) != 0) return Errno("shutdown");
  return Status::OK();
}

void TcpStream::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpListener::~TcpListener() { Close(); }

TcpListener::TcpListener(TcpListener&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
  }
  return *this;
}

Result<TcpListener> TcpListener::Bind(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Errno("bind");
  }
  // Deep backlog: the sharded gateway multiplexes tens of thousands of
  // sensors on one port, and a fleet connecting at once must not see SYN
  // drops (the kernel clamps to net.core.somaxconn).
  if (::listen(fd, 4096) != 0) {
    ::close(fd);
    return Errno("listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return Errno("getsockname");
  }
  TcpListener out;
  out.fd_ = fd;
  out.port_ = ntohs(addr.sin_port);
  return out;
}

Result<TcpStream> TcpListener::Accept() {
  while (true) {
    int cfd = ::accept(fd_, nullptr, nullptr);
    if (cfd < 0) {
      if (errno == EINTR) continue;
      return Errno("accept");
    }
    int one = 1;
    ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return TcpStream(cfd);
  }
}

Status TcpListener::SetNonBlocking(bool enabled) {
  if (fd_ < 0) return Status::InvalidArgument("listener not open");
  int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  flags = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd_, F_SETFL, flags) < 0) return Errno("fcntl(F_SETFL)");
  return Status::OK();
}

Result<std::optional<TcpStream>> TcpListener::TryAccept() {
  while (true) {
    int cfd = ::accept(fd_, nullptr, nullptr);
    if (cfd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return std::optional<TcpStream>();
      }
      return Errno("accept");
    }
    int one = 1;
    ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return std::optional<TcpStream>(TcpStream(cfd));
  }
}

void TcpListener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace datacell::net
