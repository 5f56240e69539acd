#include "storage/ingest_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <fstream>

#include "net/codec.h"
#include "obs/metrics.h"
#include "storage/pager.h"

namespace datacell::storage {

namespace {

// Digits of the largest uint64_t sequence number.
constexpr size_t kMaxSeqText = 20;

Status ValidateStreamName(const std::string& stream) {
  if (stream.empty() ||
      stream.find('|') != std::string::npos ||
      stream.find('\n') != std::string::npos) {
    return Status::InvalidArgument("bad ingest-log stream name '" + stream +
                                   "' (must be non-empty, no '|'/newline)");
  }
  return Status::OK();
}

/// One parsed log line. `rest` points into the line (tuple text / schema
/// header), untouched by record framing.
struct Record {
  char kind = 0;  // 'S', 'T' or 'K'
  std::string stream;
  uint64_t seq = 0;
  std::string rest;
};

Result<Record> ParseRecord(const std::string& line, uint64_t offset) {
  const auto bad = [&](const char* why) {
    return Status::ParseError("ingest log corrupt at byte " +
                              std::to_string(offset) + ": " + why);
  };
  if (line.size() < 2 || line[1] != '|') return bad("bad record framing");
  Record r;
  r.kind = line[0];
  if (r.kind != 'S' && r.kind != 'T' && r.kind != 'K') {
    return bad("unknown record kind");
  }
  const size_t stream_end = line.find('|', 2);
  if (stream_end == std::string::npos) return bad("missing stream field");
  r.stream = line.substr(2, stream_end - 2);
  if (r.kind == 'S') {
    r.rest = line.substr(stream_end + 1);
    return r;
  }
  size_t seq_end = line.find('|', stream_end + 1);
  if (r.kind == 'K') seq_end = line.size();
  if (r.kind == 'T' && seq_end == std::string::npos) {
    return bad("missing tuple field");
  }
  const std::string seq_str =
      line.substr(stream_end + 1, seq_end - stream_end - 1);
  char* end = nullptr;
  errno = 0;
  r.seq = std::strtoull(seq_str.c_str(), &end, 10);
  if (errno != 0 || end == seq_str.c_str() || *end != '\0' || r.seq == 0) {
    return bad("bad sequence number");
  }
  if (r.kind == 'T') r.rest = line.substr(seq_end + 1);
  return r;
}

/// Line-by-line scan of a log file. The visitor sees every complete,
/// well-formed record with its starting byte offset. A final line without
/// a terminating newline is a crash artifact: it is not visited, and its
/// offset is reported so Open can truncate it. Mid-file corruption is a
/// hard error.
struct ScanResult {
  bool torn_tail = false;
  uint64_t torn_offset = 0;
  uint64_t end_offset = 0;  // offset just past the last complete record
};

Result<ScanResult> ScanLog(
    const std::string& path,
    const std::function<Status(const Record&, uint64_t offset)>& visit) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError("cannot open ingest log '" + path + "'");
  }
  ScanResult out;
  std::string line;
  uint64_t offset = 0;
  while (std::getline(in, line)) {
    const uint64_t line_start = offset;
    offset += line.size() + 1;
    if (in.eof()) {
      // getline hit EOF without a '\n': torn tail from a crash mid-write.
      out.torn_tail = true;
      out.torn_offset = line_start;
      break;
    }
    ASSIGN_OR_RETURN(Record r, ParseRecord(line, line_start));
    if (visit) RETURN_NOT_OK(visit(r, line_start));
    out.end_offset = offset;
  }
  return out;
}

}  // namespace

IngestLog::IngestLog(std::string path, int fd)
    : path_(std::move(path)), fd_(fd) {
  StorageRegistry::Global().Register(this);
}

IngestLog::~IngestLog() {
  StorageRegistry::Global().Unregister(this);
  MutexLock lock(&mu_);
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<IngestLog>> IngestLog::Open(const std::string& path,
                                                   FsyncPolicy policy,
                                                   size_t batch_records) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open ingest log '" + path +
                           "': " + std::strerror(errno));
  }
  std::unique_ptr<IngestLog> log(new IngestLog(path, fd));
  // Recovery must accept exactly the logs replay accepts. Open used to
  // skip tuple decoding, so a log with a record replay rejects (wrong
  // arity, unregistered stream) would still open — and every record
  // appended through the recovered handle was unreachable after the next
  // crash. Running the replay validation (no-op handler) first keeps the
  // two paths agreeing by construction.
  RETURN_NOT_OK(ReplayIngestLog(path, [](const std::string&, const Schema&,
                                         uint64_t, const Row&) {
                  return Status::OK();
                }).status());
  std::map<std::string, StreamState> streams;
  Result<ScanResult> scan =
      ScanLog(path, [&streams](const Record& r, uint64_t offset) -> Status {
        switch (r.kind) {
          case 'S': {
            ASSIGN_OR_RETURN(Schema schema,
                             net::Codec::DecodeSchemaHeader(r.rest));
            auto [it, inserted] = streams.emplace(r.stream, StreamState{});
            if (inserted) {
              it->second.schema = std::move(schema);
            } else if (!(it->second.schema == schema)) {
              return Status::ParseError(
                  "ingest log: stream '" + r.stream +
                  "' re-registered with a different schema at byte " +
                  std::to_string(offset));
            }
            break;
          }
          case 'T':
            streams[r.stream].last_seq =
                std::max(streams[r.stream].last_seq, r.seq);
            break;
          case 'K':
            streams[r.stream].acked = std::max(streams[r.stream].acked, r.seq);
            break;
        }
        return Status::OK();
      });
  RETURN_NOT_OK(scan.status());
  if (scan->torn_tail) {
    // Drop the crash-torn tail so this handle appends whole records only.
    if (::ftruncate(fd, static_cast<off_t>(scan->torn_offset)) != 0) {
      return Status::IOError("cannot truncate torn ingest log tail: " +
                             std::string(std::strerror(errno)));
    }
  }
  if (::lseek(fd, 0, SEEK_END) < 0) {
    return Status::IOError("lseek: " + std::string(std::strerror(errno)));
  }
  MutexLock lock(&log->mu_);
  log->policy_ = policy;
  log->batch_records_ = batch_records == 0 ? 1 : batch_records;
  log->streams_ = std::move(streams);
  log->stats_.streams = log->streams_.size();
  return log;
}

Status IngestLog::WriteRecord(const std::string& record, bool force_sync) {
  size_t done = 0;
  while (done < record.size()) {
    ssize_t n = ::write(fd_, record.data() + done, record.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("ingest log write: " +
                             std::string(std::strerror(errno)));
    }
    done += static_cast<size_t>(n);
  }
  stats_.bytes += record.size();
  const bool batch_due = policy_ == FsyncPolicy::kBatch &&
                         unsynced_records_ >= batch_records_;
  if (force_sync || policy_ == FsyncPolicy::kAlways || batch_due) {
    if (::fsync(fd_) != 0) {
      return Status::IOError("ingest log fsync: " +
                             std::string(std::strerror(errno)));
    }
    ++stats_.fsyncs;
    unsynced_records_ = 0;
  }
  return Status::OK();
}

Status IngestLog::RegisterStream(const std::string& stream,
                                 const Schema& schema) {
  RETURN_NOT_OK(ValidateStreamName(stream));
  MutexLock lock(&mu_);
  auto it = streams_.find(stream);
  if (it != streams_.end()) {
    if (!(it->second.schema == schema)) {
      return Status::AlreadyExists("ingest-log stream '" + stream +
                                   "' already registered with a different "
                                   "schema");
    }
    return Status::OK();
  }
  net::Codec codec(schema);
  RETURN_NOT_OK(WriteRecord("S|" + stream + "|" + codec.EncodeSchemaHeader() +
                                "\n",
                            /*force_sync=*/false));
  StreamState st;
  st.schema = schema;
  streams_.emplace(stream, std::move(st));
  ++stats_.streams;
  return Status::OK();
}

Result<std::pair<uint64_t, uint64_t>> IngestLog::AppendBatch(
    const std::string& stream, const Table& batch) {
  if (batch.num_rows() == 0) return std::make_pair(uint64_t{1}, uint64_t{0});
  RETURN_NOT_OK(RegisterStream(stream, batch.schema()));
  MutexLock lock(&mu_);
  StreamState& st = streams_[stream];
  // RegisterStream checked the batch schema against the stream's, so the
  // row writer's arity matches it.
  const net::RowWriter writer(batch);
  const uint64_t first = st.last_seq + 1;
  const std::string prefix = "T|" + stream + "|";
  std::string buf;
  buf.reserve(writer.SizeHint() +
              batch.num_rows() * (prefix.size() + kMaxSeqText + 1));
  for (size_t i = 0; i < batch.num_rows(); ++i) {
    buf += prefix;
    char seq[kMaxSeqText];
    const std::to_chars_result r =
        std::to_chars(seq, seq + sizeof(seq), first + i);
    buf.append(seq, r.ptr);
    buf.push_back('|');
    writer.Append(i, &buf);
    buf.push_back('\n');
  }
  unsynced_records_ += batch.num_rows();
  stats_.records += batch.num_rows();
  RETURN_NOT_OK(WriteRecord(buf, /*force_sync=*/false));
  st.last_seq += batch.num_rows();
  if (obs::MetricsRegistry::enabled()) {
    obs::MetricsRegistry::Global()
        .GetCounter("storage.log_records")
        ->Increment(batch.num_rows());
  }
  return std::make_pair(first, st.last_seq);
}

Status IngestLog::Ack(const std::string& stream, uint64_t seq) {
  RETURN_NOT_OK(ValidateStreamName(stream));
  MutexLock lock(&mu_);
  auto it = streams_.find(stream);
  if (it == streams_.end()) {
    return Status::NotFound("ingest-log stream '" + stream + "' unknown");
  }
  if (seq <= it->second.acked) return Status::OK();  // monotonic
  ++unsynced_records_;
  ++stats_.records;
  RETURN_NOT_OK(WriteRecord("K|" + stream + "|" + std::to_string(seq) + "\n",
                            /*force_sync=*/false));
  it->second.acked = seq;
  return Status::OK();
}

Status IngestLog::Sync() {
  MutexLock lock(&mu_);
  if (::fsync(fd_) != 0) {
    return Status::IOError("ingest log fsync: " +
                           std::string(std::strerror(errno)));
  }
  ++stats_.fsyncs;
  unsynced_records_ = 0;
  return Status::OK();
}

void IngestLog::set_policy(FsyncPolicy p) {
  MutexLock lock(&mu_);
  policy_ = p;
}

FsyncPolicy IngestLog::policy() const {
  MutexLock lock(&mu_);
  return policy_;
}

uint64_t IngestLog::last_seq(const std::string& stream) const {
  MutexLock lock(&mu_);
  auto it = streams_.find(stream);
  return it == streams_.end() ? 0 : it->second.last_seq;
}

uint64_t IngestLog::acked(const std::string& stream) const {
  MutexLock lock(&mu_);
  auto it = streams_.find(stream);
  return it == streams_.end() ? 0 : it->second.acked;
}

std::vector<IngestLog::StreamInfo> IngestLog::Streams() const {
  MutexLock lock(&mu_);
  std::vector<StreamInfo> out;
  out.reserve(streams_.size());
  for (const auto& [name, st] : streams_) {
    out.push_back({name, st.schema, st.last_seq, st.acked});
  }
  return out;
}

IngestLog::Stats IngestLog::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

Result<ReplayReport> ReplayIngestLog(const std::string& path,
                                     const ReplayHandler& handler) {
  ReplayReport report;
  {
    std::ifstream probe(path);
    if (!probe.is_open()) return report;  // no log, nothing to replay
  }
  // Pass 1: collect schemas and the final ack point per stream (acks land
  // after the appends they cover, so filtering needs the whole file).
  struct StreamScan {
    Schema schema;
    std::unique_ptr<net::Codec> codec;
    Table scratch;  // one decoded tuple at a time
    uint64_t acked = 0;
    uint64_t delivered = 0;  // pass 2 dedup cursor
  };
  std::map<std::string, StreamScan> streams;
  Result<ScanResult> pass1 =
      ScanLog(path, [&streams](const Record& r, uint64_t offset) -> Status {
        if (r.kind == 'S') {
          ASSIGN_OR_RETURN(Schema schema,
                           net::Codec::DecodeSchemaHeader(r.rest));
          auto [it, inserted] = streams.emplace(r.stream, StreamScan{});
          if (inserted) {
            it->second.codec = std::make_unique<net::Codec>(schema);
            it->second.scratch = Table(schema);
            it->second.schema = std::move(schema);
          }
          (void)offset;
        } else if (r.kind == 'K') {
          streams[r.stream].acked = std::max(streams[r.stream].acked, r.seq);
        }
        return Status::OK();
      });
  RETURN_NOT_OK(pass1.status());
  report.torn_tail = pass1->torn_tail;
  report.torn_offset = pass1->torn_offset;

  // Pass 2: deliver unacked tuples in file order, exactly once per seq.
  Result<ScanResult> pass2 = ScanLog(
      path,
      [&streams, &report, &handler](const Record& r,
                                    uint64_t offset) -> Status {
        if (r.kind != 'T') return Status::OK();
        auto it = streams.find(r.stream);
        if (it == streams.end() || it->second.codec == nullptr) {
          return Status::ParseError(
              "ingest log: tuple for unregistered stream '" + r.stream +
              "' at byte " + std::to_string(offset));
        }
        StreamScan& st = it->second;
        if (r.seq <= st.acked) {
          ++report.skipped_acked;
          return Status::OK();
        }
        if (r.seq <= st.delivered) {
          ++report.skipped_dup;
          return Status::OK();
        }
        st.scratch.Clear();
        RETURN_NOT_OK(st.codec->DecodeInto(r.rest, &st.scratch));
        RETURN_NOT_OK(handler(r.stream, st.schema, r.seq, st.scratch.GetRow(0)));
        st.delivered = r.seq;
        ++report.replayed;
        return Status::OK();
      });
  RETURN_NOT_OK(pass2.status());
  if (report.replayed > 0 && obs::MetricsRegistry::enabled()) {
    obs::MetricsRegistry::Global()
        .GetCounter("storage.replayed_tuples")
        ->Increment(report.replayed);
  }
  return report;
}

StorageRegistry& StorageRegistry::Global() {
  static StorageRegistry* instance = new StorageRegistry();
  return *instance;
}

void StorageRegistry::Register(IngestLog* log) {
  MutexLock lock(&mu_);
  logs_.push_back(log);
}

void StorageRegistry::Unregister(IngestLog* log) {
  MutexLock lock(&mu_);
  logs_.erase(std::remove(logs_.begin(), logs_.end(), log), logs_.end());
}

void StorageRegistry::Register(BufferPool* pool) {
  MutexLock lock(&mu_);
  pools_.push_back(pool);
}

void StorageRegistry::Unregister(BufferPool* pool) {
  MutexLock lock(&mu_);
  pools_.erase(std::remove(pools_.begin(), pools_.end(), pool), pools_.end());
}

std::vector<IngestLog*> StorageRegistry::Logs() const {
  MutexLock lock(&mu_);
  return logs_;
}

std::vector<BufferPool*> StorageRegistry::Pools() const {
  MutexLock lock(&mu_);
  return pools_;
}

}  // namespace datacell::storage
