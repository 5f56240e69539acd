// Kill-and-recover suite for the durability tier: crash-atomic catalog
// saves, the replayable ingest log (including a SIGKILL'd writer), basket
// spill-to-disk with zero loss, durable emitter staging, and an end-to-end
// datacell_server crash/restart cycle driven over real sockets.
//
// The crash tests fork a child that writes in a loop and SIGKILL it at an
// arbitrary point — the recovery invariants must hold no matter where the
// kill landed.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/basket.h"
#include "core/engine.h"
#include "core/receptor.h"
#include "net/actuator.h"
#include "net/sensor.h"
#include "storage/chunk.h"
#include "storage/ingest_log.h"
#include "storage/pager.h"
#include "storage/persist.h"
#include "util/clock.h"

namespace datacell {
namespace {

namespace fs = std::filesystem;
using core::Basket;
using storage::BufferPool;
using storage::FsyncPolicy;
using storage::IngestLog;
using storage::Pager;
using storage::ReplayIngestLog;
using storage::ReplayReport;

class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("datacell_durability_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    storage::SetSpillEnabled(true);  // restore the global gate
    fs::remove_all(dir_);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static Schema IntSchema() { return Schema({{"v", DataType::kInt64}}); }

  static Table IntBatch(int64_t first, size_t n) {
    Table t(IntSchema());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(t.AppendRow({Value(first + static_cast<int64_t>(i))}).ok());
    }
    return t;
  }

  // Reaps `pid` after SIGKILL.
  static void KillAndReap(pid_t pid) {
    ::kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
  }

  // End-to-end datacell_server crash/restart cycle (defined below).
  void KillAndRecover(size_t shards);

  fs::path dir_;
};

// --- Crash-atomic catalog saves ---------------------------------------------

// A child overwrites the same catalog in a tight loop, alternating between
// two versions of table "t" (1 row vs 2 rows). SIGKILL at arbitrary points;
// after every kill the directory must load cleanly and "t" must be exactly
// one of the two versions — never a torn in-between file.
TEST_F(DurabilityTest, CatalogSaveSurvivesSigkill) {
  const std::string cat_dir = Path("catalog");
  {
    Catalog seed;
    auto t = seed.CreateTable("t", IntSchema());
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE((*t)->AppendRow({Value(1)}).ok());
    ASSERT_TRUE(storage::SaveCatalog(seed, cat_dir).ok());
  }
  for (int round = 0; round < 6; ++round) {
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: alternate versions forever until killed.
      Catalog one;
      auto t1 = one.CreateTable("t", IntSchema());
      if (!t1.ok() || !(*t1)->AppendRow({Value(1)}).ok()) ::_exit(1);
      Catalog two;
      auto t2 = two.CreateTable("t", IntSchema());
      if (!t2.ok() || !(*t2)->AppendRow({Value(10)}).ok() ||
          !(*t2)->AppendRow({Value(20)}).ok()) {
        ::_exit(1);
      }
      for (;;) {
        if (!storage::SaveCatalog(one, cat_dir).ok()) ::_exit(2);
        if (!storage::SaveCatalog(two, cat_dir).ok()) ::_exit(2);
      }
    }
    ::usleep(1000 * (round + 1) + 700 * round);
    KillAndReap(pid);

    Catalog loaded;
    Status st = storage::LoadCatalog(&loaded, cat_dir);
    ASSERT_TRUE(st.ok()) << "round " << round << ": " << st.ToString();
    auto t = loaded.GetTable("t");
    ASSERT_TRUE(t.ok()) << "round " << round;
    const size_t rows = (*t)->num_rows();
    ASSERT_TRUE(rows == 1 || rows == 2)
        << "round " << round << ": torn catalog, " << rows << " rows";
    if (rows == 1) {
      EXPECT_EQ((*t)->GetRow(0)[0], Value(1));
    } else {
      EXPECT_EQ((*t)->GetRow(0)[0], Value(10));
      EXPECT_EQ((*t)->GetRow(1)[0], Value(20));
    }
  }
  // Leftover .tmp files from the kill must not confuse the next full save.
  Catalog final_cat;
  auto t = final_cat.CreateTable("t", IntSchema());
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE((*t)->AppendRow({Value(99)}).ok());
  ASSERT_TRUE(storage::SaveCatalog(final_cat, cat_dir).ok());
  for (const fs::directory_entry& e : fs::directory_iterator(cat_dir)) {
    EXPECT_EQ(e.path().extension(), ".dct") << e.path();
  }
}

// --- Ingest log: round trip, recovery, replay -------------------------------

TEST_F(DurabilityTest, IngestLogRoundTripAndReopen) {
  const std::string path = Path("ingest.log");
  {
    auto log = IngestLog::Open(path, FsyncPolicy::kNone);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    auto seqs = (*log)->AppendBatch("s", IntBatch(0, 5));
    ASSERT_TRUE(seqs.ok());
    EXPECT_EQ(seqs->first, 1u);
    EXPECT_EQ(seqs->second, 5u);
    seqs = (*log)->AppendBatch("s", IntBatch(5, 3));
    ASSERT_TRUE(seqs.ok());
    EXPECT_EQ(seqs->second, 8u);
    ASSERT_TRUE((*log)->Ack("s", 3).ok());
    EXPECT_EQ((*log)->last_seq("s"), 8u);
    EXPECT_EQ((*log)->acked("s"), 3u);
  }
  // Reopen recovers per-stream sequence state; new appends continue it.
  auto log = IngestLog::Open(path, FsyncPolicy::kNone);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->last_seq("s"), 8u);
  EXPECT_EQ((*log)->acked("s"), 3u);
  auto seqs = (*log)->AppendBatch("s", IntBatch(8, 2));
  ASSERT_TRUE(seqs.ok());
  EXPECT_EQ(seqs->first, 9u);
  EXPECT_EQ(seqs->second, 10u);

  // Replay skips everything acked and delivers 4..10 in order.
  std::vector<uint64_t> seen_seqs;
  std::vector<int64_t> seen_vals;
  auto report = ReplayIngestLog(
      path, [&](const std::string& stream, const Schema& schema, uint64_t seq,
                const Row& row) -> Status {
        EXPECT_EQ(stream, "s");
        EXPECT_EQ(schema, IntSchema());
        seen_seqs.push_back(seq);
        seen_vals.push_back(row[0].int_value());
        return Status::OK();
      });
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->replayed, 7u);
  EXPECT_EQ(report->skipped_acked, 3u);
  EXPECT_FALSE(report->torn_tail);
  ASSERT_EQ(seen_seqs.size(), 7u);
  for (size_t i = 0; i < seen_seqs.size(); ++i) {
    EXPECT_EQ(seen_seqs[i], 4 + i);
    EXPECT_EQ(seen_vals[i], static_cast<int64_t>(3 + i));
  }
}

TEST_F(DurabilityTest, IngestLogTornTailTolerated) {
  const std::string path = Path("torn.log");
  {
    auto log = IngestLog::Open(path, FsyncPolicy::kNone);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->AppendBatch("s", IntBatch(0, 4)).ok());
  }
  {
    // A crash mid-write leaves a partial final line with no newline.
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "T|s|5|4";
  }
  uint64_t replayed = 0;
  auto report = ReplayIngestLog(
      path, [&](const std::string&, const Schema&, uint64_t,
                const Row&) -> Status {
        ++replayed;
        return Status::OK();
      });
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->torn_tail);
  EXPECT_EQ(report->replayed, 4u);
  EXPECT_EQ(replayed, 4u);

  // Open truncates the torn tail; the next append reuses seq 5 cleanly.
  auto log = IngestLog::Open(path, FsyncPolicy::kNone);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->last_seq("s"), 4u);
  auto seqs = (*log)->AppendBatch("s", IntBatch(4, 1));
  ASSERT_TRUE(seqs.ok());
  EXPECT_EQ(seqs->first, 5u);
}

TEST_F(DurabilityTest, IngestLogMidFileCorruptionIsHardError) {
  const std::string path = Path("corrupt.log");
  {
    auto log = IngestLog::Open(path, FsyncPolicy::kNone);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->AppendBatch("s", IntBatch(0, 3)).ok());
  }
  // Clobber a byte in the middle of the file (not the tail): replay must
  // refuse with a ParseError naming the offset, not silently skip.
  std::string contents;
  {
    std::ifstream in(path, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(in), {});
  }
  const size_t second_line = contents.find('\n') + 1;
  contents[second_line] = '?';
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
  }
  auto report = ReplayIngestLog(
      path,
      [](const std::string&, const Schema&, uint64_t, const Row&) -> Status {
        return Status::OK();
      });
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kParseError);
  EXPECT_NE(report.status().message().find("byte"), std::string::npos)
      << report.status().ToString();
}

// Regression: fuzz_ingest_log found a log that IngestLog::Open accepted
// but ReplayIngestLog rejects (a tuple whose arity does not match its
// stream's declared schema). A handle recovered from such a log is a
// durability hole — everything appended through it sits beyond a record
// the next recovery refuses to cross. Open must reject exactly what
// replay rejects. Raw input: tests/fuzz/corpus/ingest_log/
// crash-open-replay-divergence.log.
TEST_F(DurabilityTest, IngestLogOpenRejectsWhatReplayRejects) {
  const std::string path = Path("divergent.log");
  {
    std::ofstream out(path, std::ios::binary);
    out << "S|s1|ab:string\n"     // one declared field
        << "T|s1|1|1|hello\n"     // two values — arity mismatch
        << "T|s1|2|2|\\N\n"
        << "K|s1|1\n";
  }
  auto report = ReplayIngestLog(
      path,
      [](const std::string&, const Schema&, uint64_t, const Row&) -> Status {
        return Status::OK();
      });
  ASSERT_FALSE(report.ok());
  auto log = IngestLog::Open(path, FsyncPolicy::kNone);
  EXPECT_FALSE(log.ok())
      << "Open accepted a log that replay rejects; appends through this "
         "handle would be unreachable after the next crash";
}

// A child appends one-row batches with fsync-always until SIGKILL'd. The
// surviving log must replay a contiguous 1..N prefix — no gaps, no dups —
// for any kill point (at worst a torn final line, which is dropped).
TEST_F(DurabilityTest, IngestLogWriterSurvivesSigkill) {
  const std::string path = Path("killed.log");
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto log = IngestLog::Open(path, FsyncPolicy::kAlways);
    if (!log.ok()) ::_exit(1);
    for (int64_t i = 0;; ++i) {
      if (!(*log)->AppendBatch("s", IntBatch(i, 1)).ok()) ::_exit(2);
    }
  }
  // Let it write for a while (fsync-always, so this is plenty of records).
  ::usleep(60 * 1000);
  KillAndReap(pid);

  std::vector<uint64_t> seqs;
  auto report = ReplayIngestLog(
      path, [&](const std::string& stream, const Schema&, uint64_t seq,
                const Row& row) -> Status {
        EXPECT_EQ(stream, "s");
        EXPECT_EQ(row[0].int_value(), static_cast<int64_t>(seq) - 1);
        seqs.push_back(seq);
        return Status::OK();
      });
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->skipped_dup, 0u);
  ASSERT_GT(seqs.size(), 0u) << "child never wrote a complete record";
  for (size_t i = 0; i < seqs.size(); ++i) {
    ASSERT_EQ(seqs[i], i + 1) << "sequence gap after crash";
  }
  // Reopen agrees with replay about where the log ends.
  auto log = IngestLog::Open(path, FsyncPolicy::kNone);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->last_seq("s"), seqs.size());
}

// --- Spill chunk decoder hardening ------------------------------------------
//
// Regression cases from the fuzz suite (tests/fuzz/fuzz_chunk.cc). The raw
// reproducer inputs live under tests/fuzz/corpus/chunk/crash-*.bin; these
// rebuild the same pages by hand so the failure mode stays legible.

namespace {

void AppendU32(uint32_t v, std::string* out) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

constexpr uint32_t kChunkMagic = 0x44434b31;  // "DCK1"

}  // namespace

// A 14-byte page claiming 4G rows must fail the size sanity check, not
// reach validity.resize(rows) and attempt a 4 GB allocation.
// Reproducer: crash-rowcount-overalloc.bin.
TEST(SpillChunkTest, RowCountLargerThanPageRejected) {
  Schema schema({{"v", DataType::kInt64}});
  std::string page;
  AppendU32(kChunkMagic, &page);
  AppendU32(0xFFFFFFFFu, &page);  // rows
  AppendU32(1u, &page);           // cols
  page.push_back(static_cast<char>(DataType::kInt64));
  page.push_back(1);  // has-validity: sized from `rows` before the fix
  auto r = storage::DeserializeChunk(schema, page.data(), page.size());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

// rows == 0 leaves vector::data() null, and memcpy's pointer arguments
// are declared nonnull even for a zero count — UBSan aborts on the call.
// Both zero-row shapes (with and without a validity header) must decode.
// Reproducers: crash-zero-rows-memcpy.bin, crash-zero-rows-validity.bin.
TEST(SpillChunkTest, ZeroRowChunkDecodesCleanly) {
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kDouble}});
  std::string page;
  AppendU32(kChunkMagic, &page);
  AppendU32(0u, &page);  // rows
  AppendU32(2u, &page);  // cols
  page.push_back(static_cast<char>(DataType::kInt64));
  page.push_back(1);  // has-validity, zero validity bytes follow
  page.push_back(static_cast<char>(DataType::kDouble));
  page.push_back(0);  // no validity
  auto r = storage::DeserializeChunk(schema, page.data(), page.size());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_rows(), 0u);

  // And the writer's own zero-row output round-trips.
  std::string out;
  ASSERT_TRUE(storage::SerializeChunk(Table(schema), &out).ok());
  auto rt = storage::DeserializeChunk(schema, out.data(), out.size());
  ASSERT_TRUE(rt.ok()) << rt.status().ToString();
  EXPECT_EQ(rt->num_rows(), 0u);
}

// --- Basket spilling --------------------------------------------------------

TEST_F(DurabilityTest, SpillEngageAndFaultBackZeroLoss) {
  auto pager = Pager::Open(Path("spill.pages"));
  ASSERT_TRUE(pager.ok()) << pager.status().ToString();
  BufferPool pool(std::move(*pager), 8);

  Basket b("s", IntSchema(), /*add_arrival_ts=*/false);
  b.SetCapacity(100, 50);
  b.AttachSpill(&pool);
  ASSERT_TRUE(b.spill_attached());

  const size_t kTotal = 300;
  for (size_t off = 0; off < kTotal; off += 50) {
    auto n = b.AppendAligned(IntBatch(static_cast<int64_t>(off), 50), 0);
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    ASSERT_EQ(*n, 50u);
  }
  // The overflow went to disk: all rows are still visible through size(),
  // but only the hot suffix is resident (that is what producer credit and
  // the gateway valve are based on).
  EXPECT_EQ(b.size(), kTotal);
  EXPECT_GT(b.spilled_rows(), 0u);
  EXPECT_LE(b.resident_rows(), 100u);
  EXPECT_EQ(b.resident_rows() + b.spilled_rows(), kTotal);
  EXPECT_GT(pool.pager().pages_in_use(), 0u);

  // Peek faults everything back in FIFO order — zero loss, order intact.
  Table all = b.Peek();
  ASSERT_EQ(all.num_rows(), kTotal);
  for (size_t i = 0; i < kTotal; ++i) {
    EXPECT_EQ(all.GetRow(i)[0], Value(static_cast<int64_t>(i))) << "row " << i;
  }
  EXPECT_EQ(b.spilled_rows(), 0u);
  EXPECT_EQ(b.resident_rows(), kTotal);
  const Basket::Stats stats = b.stats();
  EXPECT_GT(stats.spilled, 0u);
  EXPECT_EQ(stats.faulted, stats.spilled);
  // Fault-back returned every spilled page to the pager's free list.
  EXPECT_EQ(pool.pager().pages_in_use(), 0u);

  // TakeAll drains the (now resident) basket completely.
  Table taken = b.TakeAll();
  EXPECT_EQ(taken.num_rows(), kTotal);
  EXPECT_TRUE(b.empty());
}

TEST_F(DurabilityTest, SpillErasePrefixConsumesWholeSegmentsWithoutFault) {
  auto pager = Pager::Open(Path("spill.pages"));
  ASSERT_TRUE(pager.ok());
  BufferPool pool(std::move(*pager), 8);

  Basket b("s", IntSchema(), /*add_arrival_ts=*/false);
  b.SetCapacity(100, 50);
  b.AttachSpill(&pool);

  // 150 resident rows trip the high watermark: one 100-row segment spills
  // (resident drops to the low watermark).
  ASSERT_TRUE(b.AppendAligned(IntBatch(0, 150), 0).ok());
  ASSERT_EQ(b.spilled_rows(), 100u);
  ASSERT_EQ(b.resident_rows(), 50u);

  // Draining exactly the spilled segment frees its pages without ever
  // reading them back.
  ASSERT_TRUE(b.ErasePrefix(100).ok());
  EXPECT_EQ(b.size(), 50u);
  EXPECT_EQ(b.spilled_rows(), 0u);
  EXPECT_EQ(b.stats().faulted, 0u);
  EXPECT_EQ(pool.pager().pages_in_use(), 0u);

  Table rest = b.Peek();
  ASSERT_EQ(rest.num_rows(), 50u);
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(rest.GetRow(i)[0], Value(static_cast<int64_t>(100 + i)));
  }

  // A partial-segment erase rewrites the front segment in place (minus
  // the erased prefix) instead of faulting the whole basket back in — a
  // slow consumer must not cause spill thrash.
  ASSERT_TRUE(b.AppendAligned(IntBatch(150, 100), 0).ok());
  ASSERT_EQ(b.spilled_rows(), 100u);
  ASSERT_TRUE(b.ErasePrefix(50).ok());
  EXPECT_EQ(b.stats().faulted, 0u);
  EXPECT_EQ(b.spilled_rows(), 50u);
  EXPECT_EQ(b.size(), 100u);
  Table tail = b.Peek();  // faults the rewritten segment for reading
  ASSERT_EQ(tail.num_rows(), 100u);
  for (size_t i = 0; i < tail.num_rows(); ++i) {
    EXPECT_EQ(tail.GetRow(i)[0], Value(static_cast<int64_t>(150 + i)));
  }
}

TEST_F(DurabilityTest, SpillGateDisabledKeepsRowsResident) {
  auto pager = Pager::Open(Path("spill.pages"));
  ASSERT_TRUE(pager.ok());
  BufferPool pool(std::move(*pager), 8);

  Basket b("s", IntSchema(), /*add_arrival_ts=*/false);
  b.SetCapacity(100, 50);
  b.AttachSpill(&pool);

  storage::SetSpillEnabled(false);
  ASSERT_TRUE(b.AppendAligned(IntBatch(0, 300), 0).ok());
  EXPECT_EQ(b.spilled_rows(), 0u);
  EXPECT_EQ(b.resident_rows(), 300u);
  EXPECT_EQ(pool.pager().pages_in_use(), 0u);

  // Re-enabling takes effect on the next append (determinism contract:
  // disabled means byte-identical to the no-pool build).
  storage::SetSpillEnabled(true);
  ASSERT_TRUE(b.AppendAligned(IntBatch(300, 1), 0).ok());
  EXPECT_GT(b.spilled_rows(), 0u);
  Table all = b.Peek();
  ASSERT_EQ(all.num_rows(), 301u);
  for (size_t i = 0; i < all.num_rows(); ++i) {
    EXPECT_EQ(all.GetRow(i)[0], Value(static_cast<int64_t>(i)));
  }
}

// --- Durable emitter staging ------------------------------------------------

TEST_F(DurabilityTest, EmitterStagedBatchSurvivesRestart) {
  const std::string path = Path("staging.log");
  Schema schema = IntSchema();
  auto in = std::make_shared<Basket>("out", schema, /*add_arrival_ts=*/false);

  bool sink_ok = false;
  uint64_t delivered = 0;
  auto sink = [&](const Table& batch) -> Status {
    if (!sink_ok) return Status::IOError("subscriber away");
    delivered += batch.num_rows();
    return Status::OK();
  };

  {
    auto log = IngestLog::Open(path, FsyncPolicy::kAlways);
    ASSERT_TRUE(log.ok());
    core::Emitter e("e", sink);
    e.AddInput(in);
    e.EnableDurableStaging(log->get(), "out");
    ASSERT_TRUE(in->AppendAligned(IntBatch(0, 4), 0).ok());

    // Sink down: the batch is staged in memory AND appended to the log.
    auto fired = e.Fire(0);
    ASSERT_FALSE(fired.ok());
    EXPECT_EQ(e.tuples_pending(), 4u);
    EXPECT_EQ((*log)->last_seq("out"), 4u);
    EXPECT_EQ((*log)->acked("out"), 0u);
    // Crash here: emitter and log handle die with the batch still staged.
  }

  // Restart: replay re-delivers the staged tuples (nothing was acked).
  std::vector<int64_t> replayed;
  auto report = ReplayIngestLog(
      path, [&](const std::string& stream, const Schema&, uint64_t,
                const Row& row) -> Status {
        EXPECT_EQ(stream, "out");
        replayed.push_back(row[0].int_value());
        return Status::OK();
      });
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->replayed, 4u);
  EXPECT_EQ(replayed, (std::vector<int64_t>{0, 1, 2, 3}));

  // Second life without a crash: failed once, then the retry succeeds and
  // acks the log, so a subsequent replay is empty.
  {
    auto log = IngestLog::Open(path, FsyncPolicy::kAlways);
    ASSERT_TRUE(log.ok());
    core::Emitter e("e", sink);
    e.AddInput(in);
    e.EnableDurableStaging(log->get(), "out");
    ASSERT_TRUE(in->AppendAligned(IntBatch(100, 2), 0).ok());
    sink_ok = false;
    ASSERT_FALSE(e.Fire(0).ok());
    sink_ok = true;
    auto fired = e.Fire(0);
    ASSERT_TRUE(fired.ok()) << fired.status().ToString();
    EXPECT_EQ(e.tuples_pending(), 0u);
    EXPECT_EQ(delivered, 2u);
    EXPECT_EQ((*log)->acked("out"), (*log)->last_seq("out"));
    // The retry path must keep the staged slot's schema (the old
    // `pending_ = Table()` reset dropped it); a second cycle through
    // stage-and-retry still works.
    ASSERT_TRUE(in->AppendAligned(IntBatch(200, 3), 0).ok());
    sink_ok = false;
    ASSERT_FALSE(e.Fire(0).ok());
    sink_ok = true;
    ASSERT_TRUE(e.Fire(0).ok());
    EXPECT_EQ(delivered, 5u);
    EXPECT_EQ((*log)->acked("out"), (*log)->last_seq("out"));
  }
  uint64_t leftover = 0;
  auto clean = ReplayIngestLog(
      path, [&](const std::string&, const Schema&, uint64_t,
                const Row&) -> Status {
        ++leftover;
        return Status::OK();
      });
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(leftover, 0u);
}

// --- Engine recovery facade -------------------------------------------------

TEST_F(DurabilityTest, EngineRecoverAndReplay) {
  const std::string cat_dir = Path("catalog");
  const std::string log_path = Path("ingest.log");
  {
    Catalog cat;
    auto t = cat.CreateTable("persisted", IntSchema());
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE((*t)->AppendRow({Value(7)}).ok());
    ASSERT_TRUE(storage::SaveCatalog(cat, cat_dir).ok());
    auto log = IngestLog::Open(log_path, FsyncPolicy::kNone);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->AppendBatch("s", IntBatch(0, 6)).ok());
    ASSERT_TRUE((*log)->Ack("s", 2).ok());
  }
  SimulatedClock clock;
  core::Engine engine(&clock);
  ASSERT_TRUE(engine.RecoverCatalog(cat_dir).ok());
  EXPECT_TRUE(engine.catalog().HasTable("persisted"));
  // A missing directory is a fresh start, not an error.
  EXPECT_TRUE(engine.RecoverCatalog(Path("no-such-dir")).ok());

  auto basket =
      engine.CreateBasket("s", IntSchema(), /*add_arrival_ts=*/false);
  ASSERT_TRUE(basket.ok());
  auto report = engine.ReplayIngest(log_path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->replayed, 4u);
  EXPECT_EQ(report->skipped_acked, 2u);
  EXPECT_EQ((*basket)->size(), 4u);
  Table rows = (*basket)->Peek();
  for (size_t i = 0; i < rows.num_rows(); ++i) {
    EXPECT_EQ(rows.GetRow(i)[0], Value(static_cast<int64_t>(2 + i)));
  }
  // A missing log is an empty replay.
  auto empty = engine.ReplayIngest(Path("no-such.log"));
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->replayed, 0u);
}

// --- End-to-end server kill-and-recover -------------------------------------

uint16_t FreePort() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return 0;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  uint16_t port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

int ConnectTo(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool WaitForListen(uint16_t port, int timeout_ms) {
  for (int waited = 0; waited < timeout_ms; waited += 20) {
    int fd = ConnectTo(port);
    if (fd >= 0) {
      ::close(fd);
      return true;
    }
    ::usleep(20 * 1000);
  }
  return false;
}

// `SEQ` scrape: ask the gateway for the log's highest accepted sequence.
int64_t ScrapeSeq(uint16_t port) {
  int fd = ConnectTo(port);
  if (fd < 0) return -1;
  const char* req = "SEQ\n";
  if (::write(fd, req, 4) != 4) {
    ::close(fd);
    return -1;
  }
  std::string reply;
  char c;
  while (::read(fd, &c, 1) == 1 && c != '\n') reply.push_back(c);
  ::close(fd);
  if (reply.rfind("SEQ ", 0) != 0) return -1;
  return std::atoll(reply.c_str() + 4);
}

pid_t SpawnServer(const std::string& bin, uint16_t port,
                  uint16_t actuator_port, const std::string& log_path,
                  size_t shards) {
  pid_t pid = ::fork();
  if (pid != 0) return pid;
  ::setenv("DATACELL_SHARDS", std::to_string(shards).c_str(), 1);
  ::setenv("DATACELL_LOG", log_path.c_str(), 1);
  ::setenv("DATACELL_FSYNC", "always", 1);
  int devnull = ::open("/dev/null", O_WRONLY);
  if (devnull >= 0) {
    ::dup2(devnull, STDOUT_FILENO);
    ::dup2(devnull, STDERR_FILENO);
    ::close(devnull);
  }
  const std::string port_s = std::to_string(port);
  const std::string act_s = std::to_string(actuator_port);
  ::execl(bin.c_str(), bin.c_str(), port_s.c_str(), "127.0.0.1", act_s.c_str(),
          "1", "1", static_cast<char*>(nullptr));
  ::_exit(127);
}

// The ingest-log streams a `shards`-way server writes: "b0" unsharded,
// one "b0.s<k>" per shard otherwise.
std::vector<std::string> LogStreams(size_t shards) {
  if (shards == 1) return {"b0"};
  std::vector<std::string> names;
  for (size_t k = 0; k < shards; ++k) names.push_back("b0.s" + std::to_string(k));
  return names;
}

// SIGKILL a `shards`-way datacell_server mid-ingest, restart it on the same
// ingest log, and verify (a) the log replays a contiguous prefix of every
// stream, (b) the reconnecting client can query its resume point via SEQ
// (the across-shard total), and (c) the restarted server delivers every
// logged tuple plus the new ones downstream exactly once, then acks every
// stream on clean shutdown.
void DurabilityTest::KillAndRecover(size_t shards) {
#ifndef DATACELL_SERVER_BIN
  GTEST_SKIP() << "datacell_server binary location not configured";
#else
  const std::string bin = DATACELL_SERVER_BIN;
  if (!fs::exists(bin)) {
    GTEST_SKIP() << "datacell_server not built: " << bin;
  }
  const std::string log_path = Path("server.log");
  const std::vector<std::string> streams = LogStreams(shards);
  const auto known_stream = [&](const std::string& name) {
    return std::find(streams.begin(), streams.end(), name) != streams.end();
  };
  SystemClock* clock = SystemClock::Get();

  // --- Run 1: ingest under pacing, then SIGKILL mid-stream. ---
  uint64_t logged_before_kill = 0;
  {
    net::Actuator actuator(clock);
    ASSERT_TRUE(actuator.Start(0).ok());
    const uint16_t port = FreePort();
    ASSERT_NE(port, 0);
    pid_t pid = SpawnServer(bin, port, actuator.port(), log_path, shards);
    ASSERT_GE(pid, 0);
    ASSERT_TRUE(WaitForListen(port, 10000)) << "server never listened";

    std::thread sensor([&] {
      net::Sensor::Options opt;
      opt.num_tuples = 1'000'000;  // far more than we let it send
      opt.tuples_per_write = 8;
      opt.write_interval = 500;
      // The server dies under it; the resulting socket error is the point.
      // The error is the expected outcome here, hence the explicit drop.
      net::Sensor::Run("127.0.0.1", port, opt, clock).IgnoreError();
    });

    // Wait until the (fsync-always) log holds a healthy number of records,
    // then kill the server wherever it happens to be.
    for (int waited = 0; waited < 15000; waited += 20) {
      std::error_code ec;
      if (fs::exists(log_path, ec) && fs::file_size(log_path, ec) > 4096) {
        break;
      }
      ::usleep(20 * 1000);
    }
    KillAndReap(pid);
    sensor.join();
    actuator.WaitFinished();  // server death closes the egress socket

    std::map<std::string, std::vector<uint64_t>> seqs;
    auto report = ReplayIngestLog(
        log_path, [&](const std::string& stream, const Schema&, uint64_t seq,
                      const Row&) -> Status {
          EXPECT_TRUE(known_stream(stream)) << stream;
          seqs[stream].push_back(seq);
          return Status::OK();
        });
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_GT(seqs.size(), 0u) << "kill landed before any tuple was logged";
    for (const auto& [stream, stream_seqs] : seqs) {
      for (size_t i = 0; i < stream_seqs.size(); ++i) {
        ASSERT_EQ(stream_seqs[i], i + 1)
            << "crash left a sequence gap in " << stream;
      }
      logged_before_kill += stream_seqs.size();
    }
  }

  // --- Run 2: restart on the same log, replay, finish a short session. ---
  {
    net::Actuator actuator(clock);
    ASSERT_TRUE(actuator.Start(0).ok());
    const uint16_t port = FreePort();
    ASSERT_NE(port, 0);
    pid_t pid = SpawnServer(bin, port, actuator.port(), log_path, shards);
    ASSERT_GE(pid, 0);
    ASSERT_TRUE(WaitForListen(port, 10000)) << "restart never listened";

    // The gateway tells a reconnecting sensor where the log stands: the
    // logical stream's total, whichever shard the probe lands on.
    EXPECT_EQ(ScrapeSeq(port), static_cast<int64_t>(logged_before_kill));

    const uint64_t kNewTuples = 100;
    net::Sensor::Options opt;
    opt.num_tuples = kNewTuples;
    Status sent = net::Sensor::Run("127.0.0.1", port, opt, clock);
    ASSERT_TRUE(sent.ok()) << sent.ToString();

    // The server drains and exits once the sensor disconnects.
    int status = 0;
    pid_t reaped = 0;
    for (int waited = 0; waited < 60000; waited += 50) {
      reaped = ::waitpid(pid, &status, WNOHANG);
      if (reaped == pid) break;
      ::usleep(50 * 1000);
    }
    if (reaped != pid) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      FAIL() << "restarted server never drained and exited";
    }
    ASSERT_TRUE(WIFEXITED(status)) << "server crashed on restart";
    ASSERT_EQ(WEXITSTATUS(status), 0);

    actuator.WaitFinished();
    // Exactly once past the last ack: every tuple the crashed run logged
    // is re-delivered, every new tuple delivered, nothing else.
    EXPECT_EQ(actuator.stats().tuples, logged_before_kill + kNewTuples);

    // Clean shutdown acked every stream: a third start replays nothing.
    auto log = IngestLog::Open(log_path, FsyncPolicy::kNone);
    ASSERT_TRUE(log.ok());
    uint64_t logged_total = 0;
    for (const std::string& stream : streams) {
      EXPECT_EQ((*log)->acked(stream), (*log)->last_seq(stream)) << stream;
      logged_total += (*log)->last_seq(stream);
    }
    EXPECT_EQ(logged_total, logged_before_kill + kNewTuples);
    uint64_t replayed = 0;
    auto report = ReplayIngestLog(
        log_path, [&](const std::string&, const Schema&, uint64_t,
                      const Row&) -> Status {
          ++replayed;
          return Status::OK();
        });
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(replayed, 0u);
  }
#endif
}

TEST_F(DurabilityTest, ServerKillAndRecover) {
  KillAndRecover(/*shards=*/1);
}

// The same cycle through four gateway shards: per-shard log streams, SEQ
// resume across a rehash, and exactly-once accounting over all shards.
TEST_F(DurabilityTest, ShardedServerKillAndRecover) {
  KillAndRecover(/*shards=*/4);
}

}  // namespace
}  // namespace datacell
