#ifndef DATACELL_NET_SHARD_H_
#define DATACELL_NET_SHARD_H_

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/basket.h"
#include "core/receptor.h"
#include "net/codec.h"
#include "net/socket.h"
#include "net/wakeup.h"
#include "obs/metrics.h"
#include "util/clock.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace datacell::storage {
class IngestLog;
}  // namespace datacell::storage

namespace datacell::net {

/// Options for the gateway. `max_connections` bounds the whole ingress
/// (all shards together); the acceptor stops polling the listener while at
/// the bound and resumes as connections close.
struct ShardedIngressOptions {
  size_t max_batch_rows = 1024;
  size_t max_connections = 100'000;
};

/// Kernel-side ingress — the network half of the paper's receptor: it
/// accepts and multiplexes any number of concurrent sensor connections on
/// one TCP port, validates each event's structure (via the codec), and
/// pushes credit-bounded batches of at most `max_batch_rows` into its
/// receptors' baskets. N >= 1 shards: one dedicated acceptor thread
/// accepts on the listening port and routes each new connection to a
/// shard by fd hash (fd % N); every shard runs its own epoll(7) reactor
/// thread owning exactly its partition of connections, delivering into
/// its own receptor (and thus its own per-shard basket) with independent
/// credit/watermark backpressure. Handoff is a per-shard inbox plus a
/// per-shard wake pipe (net/wakeup.h — the lost-wakeup-free ordering). The
/// unsharded server is simply the N == 1 case.
///
/// Why epoll: poll(2) rescans every registered fd per round, so with 10k
/// mostly-idle sensors each round pays O(connections) before any tuple is
/// parsed. epoll_wait returns only the ready fds, making a round
/// O(ready).
///
/// Handshake: per connection, the first line must be the schema header and
/// must match the stream schema; connections failing it are dropped
/// individually while the others keep streaming.
///
/// Backpressure is per shard: when any of a shard's output baskets declares
/// a capacity bound (Basket::SetCapacity) and the shard's credit runs out,
/// only that shard disarms its handshaken connections (EPOLL_CTL_MOD to an
/// empty event mask — level-triggered epoll would otherwise spin on the
/// unread sockets) — TCP push-back to the sensors instead of dropping;
/// sibling shards keep streaming. The shard's basket listeners poke its
/// wake pipe when the drain reaches the low watermark. Basket::Disable()
/// keeps its paper semantics: a disabled basket still *drops*.
///
/// Probes: a connection whose first line is `STATS` receives one key=value
/// line (gateway totals, per-shard fields, per-basket depth) and is
/// closed — `echo STATS | nc host port` monitors a live server. A first
/// line of `SEQ` receives `SEQ <n>\n`, the *sum* of the per-shard
/// ingest-log stream sequence numbers, and is closed: a reconnecting
/// sensor's fd almost always rehashes to a different shard, and the
/// logical stream's accepted count is the across-shard total. Probes never
/// count as sensor sessions (see finished()).
///
/// Cross-partition queries re-join the per-shard baskets through the
/// explicit merge transition (core/merge.h), which consumes partitions in
/// fixed shard order to preserve the byte-identity determinism contract.
class ShardedIngress {
 public:
  /// One receptor per shard, in shard order: `shard_receptors.size()` is
  /// the shard count. Each receptor normally feeds that shard's dedicated
  /// (bounded) basket.
  ShardedIngress(std::vector<core::ReceptorPtr> shard_receptors, Codec codec,
                 Clock* clock, ShardedIngressOptions opts = {});
  ~ShardedIngress();

  ShardedIngress(const ShardedIngress&) = delete;
  ShardedIngress& operator=(const ShardedIngress&) = delete;

  /// Write-ahead ingest logging: every batch is appended (sequence-numbered)
  /// to the log *before* it is delivered to the baskets, so nothing the
  /// engine saw is missing from the log. One stream per shard, named after
  /// the shard receptor's first output basket (so restart replay re-feeds
  /// the per-shard baskets directly). Call before Start(); the log must
  /// outlive the ingress and is internally synchronized, so all shards
  /// share it safely.
  void EnableIngestLog(storage::IngestLog* log);

  /// Binds (port 0 = ephemeral), spawns the acceptor and one reactor
  /// thread per shard, and registers with ShardRegistry (dc_shards).
  Status Start(uint16_t port = 0);
  uint16_t port() const { return port_; }

  /// Stops acceptor and shards, joins them, and closes every connection.
  /// Completes in bounded time even with connected-but-idle sensors.
  void Stop();

  /// True once at least one connection completed a schema handshake and
  /// every accepted connection has closed (so every decoded tuple reached
  /// the baskets); also true after Stop(). STATS/SEQ probes and header-less
  /// connect-and-close never read as a completed sensor session.
  bool finished() const;

  size_t num_shards() const { return shards_.size(); }
  uint64_t tuples_received() const;
  /// Malformed tuples rejected at the boundary.
  uint64_t tuples_dropped() const;
  uint64_t connections_accepted() const { return accepted_.load(); }
  size_t active_connections() const;
  uint64_t backpressure_engagements() const;
  /// True while any shard's credit valve is closed.
  bool backpressured() const;

  /// Per-shard snapshot for dc_shards and the fault-injection tests.
  struct ShardStats {
    uint64_t connections = 0;  // routed to this shard, lifetime
    uint64_t active = 0;
    uint64_t tuples = 0;
    uint64_t dropped = 0;
    uint64_t credit_stalls = 0;  // summed over the shard's output baskets
    uint64_t backpressure_engagements = 0;
    bool backpressured = false;
  };
  ShardStats shard_stats(size_t shard) const;

 private:
  class Shard;

  void AcceptorLoop();
  /// Aggregate STATS reply: gateway totals, shards=N, per-shard fields and
  /// every shard's output baskets.
  std::string StatsLine() const;
  /// Connections closed so far, summed over the shards.
  uint64_t ConnectionsClosed() const;
  /// Sum of per-shard ingest-log stream sequence numbers (the SEQ reply).
  uint64_t TotalLoggedSeq() const;

  Codec codec_;
  Clock* clock_;
  ShardedIngressOptions opts_;
  storage::IngestLog* ingest_log_ = nullptr;

  TcpListener listener_;
  uint16_t port_ = 0;
  WakePipe accept_wake_;  // Stop() -> acceptor poll loop
  std::thread acceptor_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};
  // Monotonic session counters behind finished() and active_connections():
  // accepted_ counts up in the acceptor before the connection is routed,
  // so it never trails the per-shard closed counts; sessions_ counts
  // connections that completed a schema handshake.
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> sessions_{0};
  // Registry mirrors (gateway.*).
  obs::Counter* m_tuples_;
  obs::Counter* m_dropped_;
  obs::Counter* m_connections_;
  obs::Counter* m_bp_engaged_;
};

/// Process-global list of live sharded ingresses — the dc_shards virtual
/// table walks it (same shape as storage::StorageRegistry for dc_storage).
/// Start() registers, Stop() unregisters.
class ShardRegistry {
 public:
  static ShardRegistry& Global();

  void Register(ShardedIngress* ingress);
  void Unregister(ShardedIngress* ingress);
  std::vector<ShardedIngress*> Ingresses() const;

 private:
  mutable Mutex mu_{LockRank::kActuator};
  std::vector<ShardedIngress*> list_ DC_GUARDED_BY(mu_);
};

}  // namespace datacell::net

#endif  // DATACELL_NET_SHARD_H_
