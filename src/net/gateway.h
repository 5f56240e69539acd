#ifndef DATACELL_NET_GATEWAY_H_
#define DATACELL_NET_GATEWAY_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/receptor.h"
#include "net/codec.h"
#include "net/socket.h"
#include "util/status.h"

namespace datacell::net {

/// Kernel-side egress: connects to an actuator and provides an
/// Emitter::Sink that serializes result batches onto the socket. The
/// schema header is written on the first batch.
class TcpEgress {
 public:
  static Result<std::unique_ptr<TcpEgress>> Connect(const std::string& host,
                                                    uint16_t port);

  /// The sink to install into a core::Emitter. Not thread-safe across
  /// emitters; use one egress per emitter.
  core::Emitter::Sink MakeSink();

  /// Signals EOF to the actuator.
  Status Finish();

 private:
  explicit TcpEgress(TcpStream stream) : stream_(std::move(stream)) {}

  TcpStream stream_;
  std::optional<Codec> codec_;  // built, and the header sent, on the first batch
};

}  // namespace datacell::net

#endif  // DATACELL_NET_GATEWAY_H_
