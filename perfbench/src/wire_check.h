// The wire workloads' tuple identity and the receiving side's checks.
//
// Every tuple the generator sends is (tag, payload) in the server's stream
// schema. Tuples fall due in bursts of `per_tick`; burst b goes whole to
// connection b % conns, which numbers its tuples 0, 1, 2, ... (seq). A
// tuple's tag is its due time and its payload packs (connection, seq, 16
// check bits derived from the seed), so
// the receiver can tell every tuple apart and count each one lost,
// duplicated, altered or delivered out of per-connection order.
#ifndef PERFBENCH_WIRE_CHECK_H_
#define PERFBENCH_WIRE_CHECK_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "column/table.h"
#include "common.h"
#include "net/codec.h"
#include "net/framing.h"

namespace perfbench::wire {

class Schedule {
 public:
  /// Open loop in bursts: every `tick_ns`, `per_tick` tuples fall due at
  /// once; tuple i is due at start + (i / per_tick) * tick_ns.
  Schedule(uint64_t seed, uint32_t conns, uint64_t per_tick, int64_t tick_ns,
           int64_t base_tag_us)
      : seed_(seed),
        conns_(conns),
        per_tick_(per_tick),
        tick_ns_(tick_ns),
        base_tag_us_(base_tag_us) {}

  uint32_t conns() const { return conns_; }
  uint32_t ConnOf(uint64_t i) const {
    return static_cast<uint32_t>((i / per_tick_) % conns_);
  }
  uint64_t SeqOf(uint64_t i) const {
    return (i / (per_tick_ * conns_)) * per_tick_ + i % per_tick_;
  }
  /// The run index of a connection's seq (inverse of ConnOf/SeqOf).
  uint64_t Index(uint32_t conn, uint64_t seq) const {
    return ((seq / per_tick_) * conns_ + conn) * per_tick_ + seq % per_tick_;
  }
  /// When tuple i falls due, relative to the run's start.
  int64_t OffsetNs(uint64_t i) const {
    return static_cast<int64_t>(i / per_tick_) * tick_ns_;
  }
  /// The tag a tuple carries: its due time in microseconds.
  int64_t Tag(uint64_t i) const { return base_tag_us_ + OffsetNs(i) / 1000; }
  int64_t Payload(uint32_t conn, uint64_t seq) const;

  static constexpr uint64_t kMaxSeq = (1ULL << 40) - 1;

 private:
  uint64_t seed_;
  uint32_t conns_;
  uint64_t per_tick_;
  int64_t tick_ns_;
  int64_t base_tag_us_;
};

/// Per-category counts of what arrived. A tuple whose payload or tag does
/// not match the schedule is `altered` (and the tuple it should have been
/// then shows as `lost`).
struct CheckCounts {
  uint64_t received = 0;
  uint64_t lost = 0;
  uint64_t duplicated = 0;
  uint64_t altered = 0;
  uint64_t out_of_order = 0;
  uint64_t undecodable = 0;

  uint64_t failed() const {
    return lost + duplicated + altered + out_of_order + undecodable;
  }
};

class StreamChecker {
 public:
  explicit StreamChecker(const Schedule& schedule);

  /// Checks one delivered tuple. Returns its run index if it is an intact
  /// first delivery, -1 otherwise.
  int64_t Check(int64_t tag, int64_t payload);
  /// Closes the books: every sent seq never seen intact is lost.
  void Finish(const std::vector<uint64_t>& sent_per_conn);
  void CountUndecodable() { counts_.undecodable++; }

  const CheckCounts& counts() const { return counts_; }

 private:
  const Schedule& schedule_;
  std::vector<std::vector<uint64_t>> seen_;  // per-connection seq bitsets
  std::vector<int64_t> max_seq_;             // -1 until the first tuple
  CheckCounts counts_;
};

/// Test-only corruption of the decoded stream: at fixed positions it drops
/// one tuple, duplicates one, flips a payload bit of one and swaps two
/// tuples. The checker must then report exactly Expected().
class FaultInjector {
 public:
  static CheckCounts Expected();
  void Apply(std::vector<std::pair<int64_t, int64_t>>* rows);

 private:
  uint64_t position_ = 0;  // rows seen before this chunk
  int done_ = 0;           // faults injected so far, in order
};

/// The actuator side of a wire run: frames the egress byte stream, decodes
/// each line with the gateway's Codec, checks it and records its latency
/// from the scheduled send time. Used by the receiver thread and by the
/// self-test alike.
class Receiver {
 public:
  /// Latencies of tuples scheduled in [window_begin_ns, window_end_ns) are
  /// kept, split into `windows` equal sub-windows by scheduled time.
  Receiver(const Schedule& schedule, int64_t start_ns, int64_t window_begin_ns,
           int64_t window_end_ns, size_t windows, Trace* trace,
           bool inject_fault);

  /// Consumes bytes that arrived at `recv_ns` (steady clock). The first
  /// line of the stream is the egress schema header.
  void Consume(std::string_view bytes, int64_t recv_ns);

  StreamChecker& checker() { return checker_; }
  std::vector<std::vector<int64_t>>& latencies_ns() { return latencies_ns_; }
  uint64_t delivered_in_window() const { return delivered_in_window_; }
  int64_t last_window_recv_ns() const { return last_window_recv_ns_; }
  int64_t decode_ns() const { return decode_ns_; }
  uint64_t decoded() const { return decoded_; }
  bool header_ok() const { return header_ok_; }

 private:
  const Schedule& schedule_;
  int64_t start_ns_;
  int64_t window_begin_ns_;
  int64_t window_end_ns_;
  Trace* trace_;
  bool inject_fault_;
  FaultInjector injector_;
  StreamChecker checker_;
  datacell::net::LineFramer framer_;
  datacell::net::Codec codec_;
  datacell::Table batch_;
  std::vector<std::pair<int64_t, int64_t>> rows_;
  std::vector<std::vector<int64_t>> latencies_ns_;  // per sub-window
  bool header_seen_ = false;
  bool header_ok_ = false;
  size_t tag_col_ = 0;
  size_t payload_col_ = 1;
  uint64_t delivered_in_window_ = 0;
  int64_t last_window_recv_ns_ = 0;
  int64_t decode_ns_ = 0;
  uint64_t decoded_ = 0;
};

}  // namespace perfbench::wire

#endif  // PERFBENCH_WIRE_CHECK_H_
