#include "wire_check.h"

#include <algorithm>
#include <optional>
#include <string>

namespace perfbench::wire {
namespace {

uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// payload = conn (bits 56..62) | seq (bits 16..55) | check (bits 0..15).
constexpr int kConnShift = 56;
constexpr int kSeqShift = 16;
constexpr uint64_t kCheckMask = 0xFFFF;

datacell::Schema StreamSchema() {
  return datacell::Schema({{"tag", datacell::DataType::kTimestamp},
                           {"payload", datacell::DataType::kInt64}});
}

}  // namespace

int64_t Schedule::Payload(uint32_t conn, uint64_t seq) const {
  const uint64_t check =
      Mix64(seed_ ^ (static_cast<uint64_t>(conn) << 48) ^ Mix64(seq)) &
      kCheckMask;
  return static_cast<int64_t>((static_cast<uint64_t>(conn) << kConnShift) |
                              (seq << kSeqShift) | check);
}

StreamChecker::StreamChecker(const Schedule& schedule)
    : schedule_(schedule),
      seen_(schedule.conns()),
      max_seq_(schedule.conns(), -1) {}

int64_t StreamChecker::Check(int64_t tag, int64_t payload) {
  counts_.received++;
  const uint64_t p = static_cast<uint64_t>(payload);
  const uint64_t conn = p >> kConnShift;
  const uint64_t seq = (p >> kSeqShift) & Schedule::kMaxSeq;
  if (payload < 0 || conn >= schedule_.conns() ||
      schedule_.Payload(static_cast<uint32_t>(conn), seq) != payload ||
      schedule_.Tag(schedule_.Index(static_cast<uint32_t>(conn), seq)) != tag) {
    counts_.altered++;
    return -1;
  }
  std::vector<uint64_t>& bits = seen_[conn];
  const size_t word = seq / 64;
  if (word >= bits.size()) bits.resize(word + 1 + bits.size() / 2, 0);
  const uint64_t mask = 1ULL << (seq % 64);
  if ((bits[word] & mask) != 0) {
    counts_.duplicated++;
    return -1;
  }
  bits[word] |= mask;
  if (static_cast<int64_t>(seq) < max_seq_[conn]) {
    counts_.out_of_order++;
  } else {
    max_seq_[conn] = static_cast<int64_t>(seq);
  }
  return static_cast<int64_t>(schedule_.Index(static_cast<uint32_t>(conn), seq));
}

void StreamChecker::Finish(const std::vector<uint64_t>& sent_per_conn) {
  for (size_t c = 0; c < sent_per_conn.size() && c < seen_.size(); ++c) {
    uint64_t intact = 0;
    for (uint64_t w : seen_[c]) intact += static_cast<uint64_t>(__builtin_popcountll(w));
    if (sent_per_conn[c] > intact) counts_.lost += sent_per_conn[c] - intact;
  }
}

CheckCounts FaultInjector::Expected() {
  CheckCounts c;
  c.lost = 2;  // the dropped tuple and the one whose bit was flipped
  c.duplicated = 1;
  c.altered = 1;
  c.out_of_order = 1;
  return c;
}

void FaultInjector::Apply(std::vector<std::pair<int64_t, int64_t>>* rows) {
  // Fault k fires on the first row at or after stream position 1000*(k+1);
  // the swap needs its partner in the same chunk, so it waits for one.
  const uint64_t begin = position_;
  position_ += rows->size();
  for (size_t i = 0; i < rows->size() && done_ < 4; ++i) {
    if (begin + i < 1000ULL * static_cast<uint64_t>(done_ + 1)) continue;
    switch (done_) {
      case 0:  // drop
        rows->erase(rows->begin() + static_cast<ptrdiff_t>(i));
        break;
      case 1:  // duplicate
        rows->insert(rows->begin() + static_cast<ptrdiff_t>(i), (*rows)[i]);
        ++i;
        break;
      case 2:  // flip one payload bit
        (*rows)[i].second ^= 1;
        break;
      case 3: {  // reorder: swap with the next tuple of its connection
        size_t j = i + 1;
        while (j < rows->size() && ((*rows)[j].second >> kConnShift) !=
                                       ((*rows)[i].second >> kConnShift)) {
          ++j;
        }
        if (j >= rows->size()) return;
        std::swap((*rows)[i], (*rows)[j]);
        i = j;
        break;
      }
    }
    ++done_;
  }
}

Receiver::Receiver(const Schedule& schedule, int64_t start_ns,
                   int64_t window_begin_ns, int64_t window_end_ns,
                   size_t windows, Trace* trace, bool inject_fault)
    : schedule_(schedule),
      start_ns_(start_ns),
      window_begin_ns_(window_begin_ns),
      window_end_ns_(window_end_ns),
      trace_(trace),
      inject_fault_(inject_fault),
      checker_(schedule),
      codec_(StreamSchema()),
      batch_(StreamSchema()),
      latencies_ns_(std::max<size_t>(windows, 1)) {}

void Receiver::Consume(std::string_view bytes, int64_t recv_ns) {
  SpanScope chunk(trace_, "recv.chunk");
  std::vector<std::string> lines;
  {
    SpanScope framing(trace_, "recv.framing", chunk.id());
    framer_.Append(bytes);
    while (std::optional<std::string> line = framer_.NextLine()) {
      if (!header_seen_) {
        header_seen_ = true;
        datacell::Result<datacell::Schema> schema =
            datacell::net::Codec::DecodeSchemaHeader(*line);
        // The egress forwards the chain's basket schema: the stream's
        // columns plus the server's arrival stamp.
        if (schema.ok() && schema->FindField("tag") >= 0 &&
            schema->FindField("payload") >= 0) {
          header_ok_ = true;
          tag_col_ = static_cast<size_t>(schema->FindField("tag"));
          payload_col_ = static_cast<size_t>(schema->FindField("payload"));
          codec_ = datacell::net::Codec(*schema);
          batch_ = datacell::Table(*schema);
        }
        continue;
      }
      lines.push_back(std::move(*line));
    }
  }
  if (lines.empty()) return;
  if (!header_ok_) {
    for (size_t i = 0; i < lines.size(); ++i) checker_.CountUndecodable();
    return;
  }

  batch_.Clear();
  {
    SpanScope decode(trace_, "codec.decode", chunk.id());
    const int64_t t0 = trace_->on() ? NowNs() : 0;
    for (const std::string& line : lines) {
      if (!codec_.DecodeInto(line, &batch_).ok()) checker_.CountUndecodable();
    }
    if (trace_->on()) decode_ns_ += NowNs() - t0;
    decoded_ += lines.size();
  }

  SpanScope check(trace_, "recv.check", chunk.id());
  const auto tags = batch_.column(tag_col_).ints();
  const auto payloads = batch_.column(payload_col_).ints();
  rows_.clear();
  for (size_t i = 0; i < batch_.num_rows(); ++i) {
    rows_.emplace_back(tags[i], payloads[i]);
  }
  if (inject_fault_) injector_.Apply(&rows_);
  for (const auto& [tag, payload] : rows_) {
    const int64_t index = checker_.Check(tag, payload);
    if (index < 0) continue;
    const int64_t sched_ns =
        start_ns_ + schedule_.OffsetNs(static_cast<uint64_t>(index));
    if (sched_ns < window_begin_ns_ || sched_ns >= window_end_ns_) continue;
    const size_t w = static_cast<size_t>(
        static_cast<__int128>(sched_ns - window_begin_ns_) *
        static_cast<int64_t>(latencies_ns_.size()) /
        (window_end_ns_ - window_begin_ns_));
    latencies_ns_[w].push_back(recv_ns - sched_ns);
    delivered_in_window_++;
    last_window_recv_ns_ = recv_ns;
  }
}

}  // namespace perfbench::wire
