#ifndef DATACELL_NET_WAKEUP_H_
#define DATACELL_NET_WAKEUP_H_

#include <atomic>
#include <functional>

#include "util/status.h"

namespace datacell::net {

/// Self-pipe wakeup channel shared by every reactor (the gateway's
/// acceptor and each epoll shard): producers call Notify() to make the
/// reactor's next poll/epoll_wait return, the reactor calls Drain() when
/// the pipe's read end polls readable.
///
/// A `pending` flag dedups notifies so a storm of basket listeners writes
/// at most one byte per reactor round. The ordering contract is the subtle
/// part, and getting it wrong loses wakeups: the reactor must clear
/// `pending` *before* reading the pipe. Drain() clears the flag before
/// every read pass and keeps reading until a pass finds the pipe empty, so
/// any Notify() that was suppressed by `pending == true` happened before a
/// clear-then-read pass observed its byte — whereas the reverse order
/// (drain the pipe, then clear the flag) has a window where a concurrent
/// Notify() sees `pending == true`, skips the write, and the wakeup is
/// lost until the reactor's idle timeout. WakePipeLostWakeupRegression in
/// tests/net_test.cc provokes exactly that window through the drain hook.
class WakePipe {
 public:
  WakePipe() = default;
  ~WakePipe() { Close(); }

  WakePipe(const WakePipe&) = delete;
  WakePipe& operator=(const WakePipe&) = delete;

  /// Creates the pipe, both ends non-blocking: Drain() uses a read loop,
  /// and Notify() must never park a basket consumer on a full pipe.
  Status Open();
  void Close();
  bool valid() const { return read_fd_ >= 0; }

  /// The fd the reactor registers for POLLIN/EPOLLIN.
  int read_fd() const { return read_fd_; }

  /// Wakes the reactor. Returns true when this call made the wakeup
  /// observable (wrote a byte, or the pipe is full so a byte is already
  /// there); false when it was deduped against an earlier still-pending
  /// notify. Safe from any thread, including under a basket lock.
  bool Notify();

  /// Empties the pipe, clearing `pending` before each read pass (see class
  /// comment for why that order is load-bearing). Reactor thread only.
  void Drain();

  /// Test hook: invoked after every read(2) inside Drain(), i.e. inside
  /// the exact window where the historical drain-then-clear ordering lost
  /// concurrent notifies. Not thread-safe; install before Start()/Drain().
  void set_drain_hook_for_test(std::function<void()> hook) {
    drain_hook_ = std::move(hook);
  }

 private:
  int read_fd_ = -1;
  int write_fd_ = -1;
  std::atomic<bool> pending_{false};
  std::function<void()> drain_hook_;
};

}  // namespace datacell::net

#endif  // DATACELL_NET_WAKEUP_H_
