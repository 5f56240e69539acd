// Snapshot-isolation coverage for the zero-copy basket hot path: COW
// column snapshots must stay immutable under every writer-side mutation
// (append, erase, prefix consumption, compaction, clear), and FIFO prefix
// consumption must be an O(1) head advance with amortized physical
// reclamation.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "column/column.h"
#include "column/table.h"
#include "core/basket.h"
#include "core/basket_expression.h"

namespace datacell {
namespace {

Column IntColumn(int64_t first, size_t n) {
  Column c(DataType::kInt64);
  for (size_t i = 0; i < n; ++i) c.AppendInt(first + static_cast<int64_t>(i));
  return c;
}

std::vector<int64_t> ToVector(const ColumnView<int64_t>& v) {
  return std::vector<int64_t>(v.begin(), v.end());
}

// --- Column-level COW ------------------------------------------------------

TEST(ColumnCowTest, CopyIsZeroCopyUntilMutation) {
  Column base = IntColumn(0, 100);
  Column snap = base;
  EXPECT_TRUE(snap.SharesStorageWith(base));
  // Reading does not detach.
  EXPECT_EQ(snap.size(), 100u);
  EXPECT_TRUE(snap.SharesStorageWith(base));
  // Writer mutation detaches the writer, not the snapshot.
  base.AppendInt(100);
  EXPECT_FALSE(snap.SharesStorageWith(base));
  EXPECT_EQ(base.size(), 101u);
  EXPECT_EQ(snap.size(), 100u);
}

TEST(ColumnCowTest, SnapshotUnaffectedByWriterAppends) {
  Column base = IntColumn(0, 10);
  const Column snap = base;
  const std::vector<int64_t> before = ToVector(snap.ints());
  for (int64_t v = 10; v < 50; ++v) base.AppendInt(v);
  EXPECT_EQ(ToVector(snap.ints()), before);
}

TEST(ColumnCowTest, SnapshotUnaffectedByWriterEraseAndClear) {
  Column base = IntColumn(0, 20);
  const Column snap = base;
  base.EraseRows({0, 1, 2, 5, 7});
  base.Clear();
  EXPECT_EQ(base.size(), 0u);
  ASSERT_EQ(snap.size(), 20u);
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(snap.ints()[i], static_cast<int64_t>(i));
  }
}

TEST(ColumnCowTest, SnapshotOfHeadOffsetColumnSeesLiveRowsOnly) {
  Column base = IntColumn(0, 100);
  base.ErasePrefix(40);  // below compaction threshold: head advances
  ASSERT_EQ(base.head(), 40u);
  const Column snap = base;
  EXPECT_EQ(snap.size(), 60u);
  EXPECT_EQ(snap.ints()[0], 40);
  // The writer consuming further does not move the snapshot's view.
  base.ErasePrefix(10);
  EXPECT_EQ(snap.ints()[0], 40);
  EXPECT_EQ(base.ints()[0], 50);
}

TEST(ColumnCowTest, ValidityVectorIsSnapshotIsolatedToo) {
  Column base(DataType::kInt64);
  base.AppendInt(1);
  base.AppendNull();
  base.AppendInt(3);
  const Column snap = base;
  base.AppendNull();
  base.EraseRows({1});
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_TRUE(snap.IsValid(0));
  EXPECT_FALSE(snap.IsValid(1));
  EXPECT_TRUE(snap.IsValid(2));
  ASSERT_EQ(base.size(), 3u);
  EXPECT_TRUE(base.IsValid(0));
  EXPECT_TRUE(base.IsValid(1));
  EXPECT_FALSE(base.IsValid(2));
}

TEST(ColumnCowTest, StringColumnsShareAndDetach) {
  Column base(DataType::kString);
  base.AppendString("alpha");
  base.AppendString("beta");
  Column snap = base;
  EXPECT_TRUE(snap.SharesStorageWith(base));
  base.AppendString("gamma");
  EXPECT_FALSE(snap.SharesStorageWith(base));
  EXPECT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap.strings()[1], "beta");
}

// --- O(1) prefix consumption and compaction --------------------------------

// --- Empty-column adoption --------------------------------------------------
// Appending into an empty column adopts the source's buffers copy-on-write;
// from then on the two columns behave like a snapshot pair.

TEST(ColumnAdoptTest, AppendIntoEmptySharesStorage) {
  const Column src = IntColumn(0, 100);
  Column dst(DataType::kInt64);
  ASSERT_TRUE(dst.AppendColumn(src).ok());
  EXPECT_TRUE(dst.SharesStorageWith(src));
  EXPECT_EQ(ToVector(std::as_const(dst).ints()), ToVector(src.ints()));
  // Appending an empty column changes nothing and shares nothing.
  Column empty(DataType::kInt64);
  ASSERT_TRUE(empty.AppendColumn(Column(DataType::kInt64)).ok());
  EXPECT_TRUE(empty.empty());
}

TEST(ColumnAdoptTest, MutatingEitherSideLeavesTheOtherIntact) {
  // Each mutation runs once on the adopting side and once on the source.
  const std::vector<void (*)(Column*)> mutations = {
      [](Column* c) { c->AppendInt(-1); },
      [](Column* c) { c->EraseRows({1, 3, 5}); },
      [](Column* c) { c->ErasePrefix(10); },
      [](Column* c) { c->KeepRows({0, 2}); },
      [](Column* c) { c->Clear(); },
      [](Column* c) { c->ints()[0] = 42; },
  };
  for (size_t m = 0; m < mutations.size(); ++m) {
    for (bool mutate_source : {false, true}) {
      Column src = IntColumn(0, 40);
      Column dst(DataType::kInt64);
      ASSERT_TRUE(dst.AppendColumn(src).ok());
      const std::vector<int64_t> expect = ToVector(std::as_const(src).ints());
      Column& mutated = mutate_source ? src : dst;
      const Column& other = mutate_source ? dst : src;
      mutations[m](&mutated);
      EXPECT_EQ(ToVector(other.ints()), expect)
          << "mutation " << m << (mutate_source ? " of the source" : "");
    }
  }
}

TEST(ColumnAdoptTest, AdoptsHeadOffsetValidityAndStrings) {
  Column src(DataType::kString);
  for (int i = 0; i < 8; ++i) {
    if (i % 3 == 0) {
      src.AppendNull();
    } else {
      src.AppendString("s" + std::to_string(i));
    }
  }
  src.ErasePrefix(2);
  Column dst(DataType::kString);
  ASSERT_TRUE(dst.AppendColumn(src).ok());
  EXPECT_TRUE(dst.SharesStorageWith(src));
  ASSERT_EQ(dst.size(), 6u);
  for (size_t i = 0; i < dst.size(); ++i) {
    EXPECT_EQ(dst.GetValue(i), src.GetValue(i)) << i;
  }
  // A later append detaches only the writer, keeping validity aligned.
  dst.AppendNull();
  dst.AppendString("tail");
  EXPECT_FALSE(dst.SharesStorageWith(src));
  EXPECT_EQ(src.size(), 6u);
  EXPECT_TRUE(dst.GetValue(6).is_null());
  EXPECT_EQ(dst.GetValue(7), Value("tail"));
  EXPECT_TRUE(dst.GetValue(1).is_null());  // row 3 of the original
  EXPECT_EQ(dst.GetValue(0), Value("s2"));
}

TEST(ColumnHeadTest, ErasePrefixAdvancesHeadWithoutCopy) {
  Column c = IntColumn(0, 100);
  c.ErasePrefix(30);
  EXPECT_EQ(c.size(), 70u);
  EXPECT_EQ(c.head(), 30u);
  EXPECT_EQ(c.PhysicalSize(), 100u);  // nothing reclaimed yet
  EXPECT_EQ(c.ints()[0], 30);
  EXPECT_EQ(c.GetValue(0), Value(int64_t{30}));
}

TEST(ColumnHeadTest, FullConsumptionResetsStorage) {
  Column c = IntColumn(0, 1000);
  c.ErasePrefix(1000);
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.head(), 0u);
  EXPECT_EQ(c.PhysicalSize(), 0u);
}

TEST(ColumnHeadTest, CompactionReclaimsLargeConsumedPrefix) {
  // Consume more than half of a large buffer: the amortized compaction
  // must fold the head away.
  Column c = IntColumn(0, 1000);
  c.ErasePrefix(600);
  EXPECT_EQ(c.size(), 400u);
  EXPECT_EQ(c.head(), 0u);
  EXPECT_EQ(c.PhysicalSize(), 400u);
  EXPECT_EQ(c.ints()[0], 600);
}

TEST(ColumnHeadTest, CompactionDeferredWhileSnapshotPinsBuffer) {
  Column c = IntColumn(0, 1000);
  const Column snap = c;
  c.ErasePrefix(600);
  // Shared storage: the head advances but physical reclamation waits.
  EXPECT_EQ(c.size(), 400u);
  EXPECT_EQ(c.head(), 600u);
  EXPECT_EQ(c.PhysicalSize(), 1000u);
  EXPECT_TRUE(c.SharesStorageWith(snap));
  EXPECT_EQ(snap.size(), 1000u);
  // The writer's next mutation detaches and drops the stale prefix.
  c.AppendInt(1000);
  EXPECT_FALSE(c.SharesStorageWith(snap));
  EXPECT_EQ(c.head(), 0u);
  EXPECT_EQ(c.PhysicalSize(), 401u);
  EXPECT_EQ(c.ints()[0], 600);
  EXPECT_EQ(c.ints()[400], 1000);
  EXPECT_EQ(snap.size(), 1000u);
  EXPECT_EQ(snap.ints()[0], 0);
}

TEST(ColumnHeadTest, EraseRowsDetectsPrefixSelection) {
  Column c = IntColumn(0, 500);
  SelVector prefix(300);
  for (uint32_t i = 0; i < 300; ++i) prefix[i] = i;
  c.EraseRows(prefix);
  // Routed through ErasePrefix: compaction policy applies (600 > 256 and
  // more than half the buffer), so this also reclaims.
  EXPECT_EQ(c.size(), 200u);
  EXPECT_EQ(c.ints()[0], 300);
}

TEST(ColumnHeadTest, NonPrefixEraseStillWorksWithHeadOffset) {
  Column c = IntColumn(0, 10);
  c.ErasePrefix(4);  // live rows 4..9
  c.EraseRows({1, 3});  // logical rows: values 5 and 7
  const Column& view = c;
  EXPECT_EQ(ToVector(view.ints()), (std::vector<int64_t>{4, 6, 8, 9}));
}

TEST(ColumnHeadTest, MutableAccessorFoldsHeadAway) {
  Column c = IntColumn(0, 10);
  c.ErasePrefix(4);
  std::vector<int64_t>& raw = c.ints();
  // Physical and logical indexing must coincide for the raw vector.
  ASSERT_EQ(raw.size(), 6u);
  EXPECT_EQ(raw[0], 4);
  EXPECT_EQ(c.head(), 0u);
}

TEST(ColumnHeadTest, AppendAfterPrefixConsumptionKeepsHead) {
  // Steady-state FIFO: append after consume must not trigger a physical
  // shift per append (the typed append path leaves the head in place).
  Column c = IntColumn(0, 100);
  c.ErasePrefix(50);
  ASSERT_EQ(c.head(), 50u);
  c.AppendInt(100);
  EXPECT_EQ(c.head(), 50u);
  EXPECT_EQ(c.size(), 51u);
  EXPECT_EQ(c.ints()[50], 100);
}

// --- Table-level snapshots --------------------------------------------------

TEST(TableSnapshotTest, CopySharesAllColumns) {
  Table t(Schema({{"a", DataType::kInt64}, {"b", DataType::kString}}));
  ASSERT_TRUE(t.AppendRow({Value(int64_t{1}), Value("x")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(int64_t{2}), Value("y")}).ok());
  const Table snap = t;
  EXPECT_TRUE(snap.column(0).SharesStorageWith(t.column(0)));
  EXPECT_TRUE(snap.column(1).SharesStorageWith(t.column(1)));
  ASSERT_TRUE(t.AppendRow({Value(int64_t{3}), Value("z")}).ok());
  EXPECT_EQ(snap.num_rows(), 2u);
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(snap.GetRow(1)[1], Value("y"));
}

TEST(TableSnapshotTest, ErasePrefixIsUniformAcrossColumns) {
  Table t(Schema({{"a", DataType::kInt64}, {"b", DataType::kDouble}}));
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(i), Value(i * 0.5)}).ok());
  }
  ASSERT_TRUE(t.ErasePrefix(4).ok());
  EXPECT_EQ(t.num_rows(), 6u);
  EXPECT_EQ(t.GetRow(0)[0], Value(int64_t{4}));
  EXPECT_EQ(t.GetRow(0)[1], Value(2.0));
  // Over-long prefixes clamp.
  ASSERT_TRUE(t.ErasePrefix(100).ok());
  EXPECT_EQ(t.num_rows(), 0u);
}

// --- Basket-level snapshots -------------------------------------------------

core::BasketPtr MakeBasket(const std::string& name) {
  return std::make_shared<core::Basket>(
      name, Schema({{"v", DataType::kInt64}}), /*add_arrival_ts=*/false);
}

Table OneColBatch(int64_t first, size_t n) {
  Table t(Schema({{"v", DataType::kInt64}}));
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(t.AppendRow({Value(first + static_cast<int64_t>(i))}).ok());
  }
  return t;
}

TEST(BasketSnapshotTest, PeekIsZeroCopyAndImmutable) {
  auto b = MakeBasket("b");
  ASSERT_TRUE(b->Append(OneColBatch(0, 100), 0).ok());
  const Table snap = b->Peek();
  EXPECT_TRUE(snap.column(0).SharesStorageWith(b->contents().column(0)));

  // Appends, prefix consumption, and a full clear: the snapshot holds.
  ASSERT_TRUE(b->Append(OneColBatch(100, 50), 0).ok());
  ASSERT_TRUE(b->ErasePrefix(80).ok());
  b->Clear();
  EXPECT_EQ(b->size(), 0u);
  ASSERT_EQ(snap.num_rows(), 100u);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(snap.column(0).ints()[i], static_cast<int64_t>(i));
  }
}

TEST(BasketSnapshotTest, ErasePrefixIsHeadAdvance) {
  auto b = MakeBasket("b");
  ASSERT_TRUE(b->Append(OneColBatch(0, 100), 0).ok());
  ASSERT_TRUE(b->ErasePrefix(30).ok());
  EXPECT_EQ(b->size(), 70u);
  EXPECT_EQ(b->contents().column(0).head(), 30u);
  EXPECT_EQ(b->stats().consumed, 30u);
  // Version must bump so scheduler wakeups still fire on consumption.
  const uint64_t v = b->version();
  ASSERT_TRUE(b->ErasePrefix(10).ok());
  EXPECT_GT(b->version(), v);
  // Consuming nothing does not signal.
  const uint64_t v2 = b->version();
  ASSERT_TRUE(b->ErasePrefix(0).ok());
  EXPECT_EQ(b->version(), v2);
}

TEST(BasketSnapshotTest, TakeAllAfterSnapshotLeavesSnapshotIntact) {
  auto b = MakeBasket("b");
  ASSERT_TRUE(b->Append(OneColBatch(0, 10), 0).ok());
  const Table snap = b->Peek();
  Table taken = b->TakeAll();
  EXPECT_EQ(taken.num_rows(), 10u);
  EXPECT_EQ(snap.num_rows(), 10u);
  EXPECT_EQ(b->size(), 0u);
  // The moved-out table still shares with the snapshot until mutated.
  EXPECT_TRUE(taken.column(0).SharesStorageWith(snap.column(0)));
}

TEST(BasketSnapshotTest, BatchConsumeEvaluatesOnSnapshot) {
  auto b = MakeBasket("b");
  ASSERT_TRUE(b->Append(OneColBatch(0, 50), 0).ok());
  core::BasketExpression be(b);
  be.Consume(core::ConsumePolicy::kBatch);
  EvalContext ctx;
  auto result = be.Evaluate(ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 50u);
  EXPECT_EQ(b->size(), 0u);  // batch fully consumed
  EXPECT_EQ(result->column(0).ints()[49], 49);
}

TEST(BasketSnapshotTest, TopNBatchDoesNotConsumeUnderfilledWindow) {
  auto b = MakeBasket("b");
  ASSERT_TRUE(b->Append(OneColBatch(0, 3), 0).ok());
  core::BasketExpression be(b);
  be.Consume(core::ConsumePolicy::kBatch);
  be.OrderBy({{Expr::Col("v"), /*ascending=*/false}});
  be.Top(5);
  EvalContext ctx;
  auto result = be.Evaluate(ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 0u);
  // The early-clear optimization must not fire for top-n windows.
  EXPECT_EQ(b->size(), 3u);
  // Once fillable, it consumes the whole batch.
  ASSERT_TRUE(b->Append(OneColBatch(3, 4), 0).ok());
  auto full = be.Evaluate(ctx);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->num_rows(), 5u);
  EXPECT_EQ(full->column(0).ints()[0], 6);
  EXPECT_EQ(b->size(), 0u);
}

TEST(BasketSnapshotTest, AppendIntoEmptyBasketSharesStorage) {
  const Table batch = OneColBatch(0, 64);
  auto plain = MakeBasket("plain");
  ASSERT_TRUE(plain->AppendAligned(batch, 0).ok());
  EXPECT_TRUE(plain->contents().column(0).SharesStorageWith(batch.column(0)));
  // The arrival-column widening shares the user columns too.
  auto stamped = std::make_shared<core::Basket>(
      "stamped", Schema({{"v", DataType::kInt64}}), /*add_arrival_ts=*/true);
  ASSERT_TRUE(stamped->Append(batch, 7).ok());
  EXPECT_TRUE(stamped->contents().column(0).SharesStorageWith(batch.column(0)));
  EXPECT_EQ(stamped->contents().column(1).ints()[63], 7);
  // A second append detaches the basket; the batch is untouched.
  ASSERT_TRUE(plain->AppendAligned(OneColBatch(64, 4), 0).ok());
  EXPECT_FALSE(plain->contents().column(0).SharesStorageWith(batch.column(0)));
  EXPECT_EQ(batch.num_rows(), 64u);
  EXPECT_EQ(plain->size(), 68u);
}

// Fan-out: sibling baskets adopt one batch. Consuming and refilling one
// sibling must never disturb a reader of another (run under TSan in CI).
TEST(BasketSnapshotTest, SiblingConsumerDoesNotDisturbReader) {
  constexpr int kRounds = 200;
  auto reader_side = MakeBasket("reader");
  auto consumer_side = MakeBasket("consumer");
  {
    const Table batch = OneColBatch(0, 512);
    ASSERT_TRUE(reader_side->AppendAligned(batch, 0).ok());
    ASSERT_TRUE(consumer_side->AppendAligned(batch, 0).ok());
  }
  ASSERT_TRUE(reader_side->contents().column(0).SharesStorageWith(
      consumer_side->contents().column(0)));
  std::atomic<bool> bad{false};
  std::thread reader([&] {
    for (int r = 0; r < kRounds; ++r) {
      const Table snap = reader_side->Peek();
      int64_t sum = 0;
      for (int64_t v : snap.column(0).ints()) sum += v;
      if (snap.num_rows() != 512 || sum != 511 * 512 / 2) bad = true;
    }
  });
  for (int r = 0; r < kRounds; ++r) {
    ASSERT_TRUE(consumer_side->AppendAligned(OneColBatch(r, 200), 0).ok());
    ASSERT_TRUE(consumer_side->ErasePrefix(100).ok());
    SelVector odd;
    for (uint32_t i = 1; i < 50; i += 2) odd.push_back(i);
    ASSERT_TRUE(consumer_side->EraseRows(odd).ok());
    if (r % 10 == 9) consumer_side->TakeAll();
  }
  reader.join();
  EXPECT_FALSE(bad.load());
  EXPECT_EQ(reader_side->size(), 512u);
}

}  // namespace
}  // namespace datacell
