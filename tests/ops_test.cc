#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <climits>
#include <cstring>
#include <thread>

#include "ops/aggregate.h"
#include "ops/delete.h"
#include "ops/join.h"
#include "ops/kernels.h"
#include "ops/morsel.h"
#include "ops/project.h"
#include "ops/select.h"
#include "ops/sort.h"
#include "util/random.h"
#include "util/simd.h"

namespace datacell {
namespace {

using ops::AggFunc;
using ops::AggItem;
using ops::GroupItem;
using ops::JoinKey;
using ops::ProjectionItem;
using ops::SortKey;

Table Orders() {
  Table t(Schema({{"id", DataType::kInt64},
                  {"cust", DataType::kString},
                  {"amount", DataType::kDouble}}));
  EXPECT_TRUE(t.AppendRow({Value(1), Value("ann"), Value(10.0)}).ok());
  EXPECT_TRUE(t.AppendRow({Value(2), Value("bob"), Value(20.0)}).ok());
  EXPECT_TRUE(t.AppendRow({Value(3), Value("ann"), Value(5.0)}).ok());
  EXPECT_TRUE(t.AppendRow({Value(4), Value("cat"), Value(40.0)}).ok());
  EXPECT_TRUE(t.AppendRow({Value(5), Value("bob"), Value(15.0)}).ok());
  return t;
}

TEST(SelectTest, PredicateSelection) {
  Table t = Orders();
  EvalContext ctx;
  auto sel = ops::Select(
      t, *Expr::Bin(BinaryOp::kGe, Expr::Col("amount"), Expr::Lit(15.0)), ctx);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (SelVector{1, 3, 4}));
}

TEST(SelectTest, RangeScanInclusive) {
  Table t = Orders();
  auto sel = ops::SelectRange(t, "id", Value(2), true, Value(4), true);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (SelVector{1, 2, 3}));
}

TEST(SelectTest, RangeScanExclusive) {
  Table t = Orders();
  auto sel = ops::SelectRange(t, "id", Value(2), false, Value(4), false);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (SelVector{2}));
}

TEST(SelectTest, RangeOpenBounds) {
  Table t = Orders();
  auto sel = ops::SelectRange(t, "id", Value::Null(), true, Value(2), true);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (SelVector{0, 1}));
  sel = ops::SelectRange(t, "id", Value(4), true, Value::Null(), true);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (SelVector{3, 4}));
}

TEST(SelectTest, RangeOnStringsRejected) {
  Table t = Orders();
  EXPECT_FALSE(ops::SelectRange(t, "cust", Value(1), true, Value(2), true).ok());
}

TEST(SelectTest, FilterMaterializes) {
  Table t = Orders();
  EvalContext ctx;
  auto f = ops::Filter(
      t, *Expr::Bin(BinaryOp::kEq, Expr::Col("cust"), Expr::Lit("ann")), ctx);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->num_rows(), 2u);
}

TEST(ProjectTest, SelectStar) {
  Table t = Orders();
  EvalContext ctx;
  auto out = ops::Project(t, ops::ProjectAll(t.schema()), ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 5u);
  EXPECT_EQ(out->schema(), t.schema());
}

TEST(ProjectTest, ComputedColumnAndRename) {
  Table t = Orders();
  EvalContext ctx;
  std::vector<ProjectionItem> items = {
      {Expr::Col("id"), "order_id"},
      {Expr::Bin(BinaryOp::kMul, Expr::Col("amount"), Expr::Lit(2)), "dbl"}};
  auto out = ops::Project(t, items, ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->schema().field(0).name, "order_id");
  EXPECT_DOUBLE_EQ(out->column(1).doubles()[3], 80.0);
}

TEST(ProjectTest, WithSelection) {
  Table t = Orders();
  EvalContext ctx;
  SelVector sel{0, 4};
  auto out = ops::Project(t, ops::ProjectAll(t.schema()), ctx, &sel);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 2u);
  EXPECT_EQ(out->GetRow(1)[0], Value(5));
}

Table Payments() {
  Table t(Schema({{"order_id", DataType::kInt64},
                  {"method", DataType::kString}}));
  EXPECT_TRUE(t.AppendRow({Value(1), Value("card")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(3), Value("cash")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(3), Value("card")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(9), Value("card")}).ok());
  return t;
}

TEST(JoinTest, HashJoinBasic) {
  Table orders = Orders();
  Table pay = Payments();
  auto m = ops::HashJoinIndices(orders, pay, {{"id", "order_id"}});
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->left.size(), 3u);  // order 1 once, order 3 twice
  auto joined = ops::MaterializeJoin(orders, pay, *m);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->num_rows(), 3u);
  EXPECT_EQ(joined->schema().num_fields(), 5u);
}

TEST(JoinTest, HashJoinNoMatches) {
  Table orders = Orders();
  Table pay(Schema({{"order_id", DataType::kInt64},
                    {"method", DataType::kString}}));
  ASSERT_TRUE(pay.AppendRow({Value(100), Value("card")}).ok());
  auto m = ops::HashJoinIndices(orders, pay, {{"id", "order_id"}});
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m->left.empty());
}

TEST(JoinTest, NullKeysNeverMatch) {
  Table a(Schema({{"k", DataType::kInt64}}));
  ASSERT_TRUE(a.AppendRow({Value::Null()}).ok());
  ASSERT_TRUE(a.AppendRow({Value(1)}).ok());
  Table b(Schema({{"k2", DataType::kInt64}}));
  ASSERT_TRUE(b.AppendRow({Value::Null()}).ok());
  ASSERT_TRUE(b.AppendRow({Value(1)}).ok());
  auto m = ops::HashJoinIndices(a, b, {{"k", "k2"}});
  ASSERT_TRUE(m.ok());
  ASSERT_EQ(m->left.size(), 1u);
  EXPECT_EQ(m->left[0], 1u);
  EXPECT_EQ(m->right[0], 1u);
}

TEST(JoinTest, SelfJoin) {
  Table orders = Orders();
  auto m = ops::HashJoinIndices(orders, orders, {{"cust", "cust"}});
  ASSERT_TRUE(m.ok());
  // ann:2 rows -> 4 pairs, bob:2 -> 4, cat:1 -> 1.
  EXPECT_EQ(m->left.size(), 9u);
}

TEST(JoinTest, CompositeKey) {
  Table a(Schema({{"x", DataType::kInt64}, {"y", DataType::kString}}));
  ASSERT_TRUE(a.AppendRow({Value(1), Value("p")}).ok());
  ASSERT_TRUE(a.AppendRow({Value(1), Value("q")}).ok());
  Table b(Schema({{"x2", DataType::kInt64}, {"y2", DataType::kString}}));
  ASSERT_TRUE(b.AppendRow({Value(1), Value("q")}).ok());
  auto m = ops::HashJoinIndices(a, b, {{"x", "x2"}, {"y", "y2"}});
  ASSERT_TRUE(m.ok());
  ASSERT_EQ(m->left.size(), 1u);
  EXPECT_EQ(m->left[0], 1u);
}

TEST(JoinTest, MaterializeRenamesCollisions) {
  Table orders = Orders();
  auto m = ops::HashJoinIndices(orders, orders, {{"id", "id"}});
  ASSERT_TRUE(m.ok());
  auto joined = ops::MaterializeJoin(orders, orders, *m);
  ASSERT_TRUE(joined.ok());
  EXPECT_GE(joined->schema().FindField("r_id"), 0);
  EXPECT_GE(joined->schema().FindField("r_cust"), 0);
}

TEST(JoinTest, ThetaJoinNestedLoop) {
  Table orders = Orders();
  Table pay = Payments();
  EvalContext ctx;
  // id < order_id : theta join.
  ExprPtr pred = Expr::Bin(BinaryOp::kLt, Expr::Col("id"), Expr::Col("order_id"));
  auto m = ops::NestedLoopJoin(orders, pay, *pred, ctx);
  ASSERT_TRUE(m.ok());
  // Count pairs manually: ids {1..5} vs order_ids {1,3,3,9}.
  // id=1: {3,3,9} -> 3; id=2: {3,3,9} -> 3; id=3: {9} -> 1; id=4: {9}; id=5: {9}.
  EXPECT_EQ(m->left.size(), 9u);
}

TEST(JoinTest, HashJoinWithResidual) {
  Table orders = Orders();
  Table pay = Payments();
  EvalContext ctx;
  ExprPtr residual =
      Expr::Bin(BinaryOp::kEq, Expr::Col("method"), Expr::Lit("card"));
  auto joined = ops::HashJoin(orders, pay, {{"id", "order_id"}}, residual, ctx);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->num_rows(), 2u);
}

TEST(AggregateTest, GlobalAggregates) {
  Table t = Orders();
  EvalContext ctx;
  std::vector<AggItem> aggs = {
      {AggFunc::kCountStar, nullptr, "n"},
      {AggFunc::kSum, Expr::Col("amount"), "total"},
      {AggFunc::kAvg, Expr::Col("amount"), "mean"},
      {AggFunc::kMin, Expr::Col("amount"), "lo"},
      {AggFunc::kMax, Expr::Col("amount"), "hi"}};
  auto out = ops::Aggregate(t, {}, aggs, ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->GetRow(0)[0], Value(int64_t{5}));
  EXPECT_EQ(out->GetRow(0)[1], Value(90.0));
  EXPECT_EQ(out->GetRow(0)[2], Value(18.0));
  EXPECT_EQ(out->GetRow(0)[3], Value(5.0));
  EXPECT_EQ(out->GetRow(0)[4], Value(40.0));
}

TEST(AggregateTest, EmptyInputGlobal) {
  Table t(Schema({{"x", DataType::kInt64}}));
  EvalContext ctx;
  std::vector<AggItem> aggs = {{AggFunc::kCountStar, nullptr, "n"},
                               {AggFunc::kSum, Expr::Col("x"), "s"}};
  auto out = ops::Aggregate(t, {}, aggs, ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->GetRow(0)[0], Value(int64_t{0}));
  EXPECT_TRUE(out->GetRow(0)[1].is_null());
}

TEST(AggregateTest, GroupBy) {
  Table t = Orders();
  EvalContext ctx;
  std::vector<GroupItem> groups = {{Expr::Col("cust"), "cust"}};
  std::vector<AggItem> aggs = {{AggFunc::kSum, Expr::Col("amount"), "total"},
                               {AggFunc::kCountStar, nullptr, "n"}};
  auto out = ops::Aggregate(t, groups, aggs, ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 3u);
  // First-seen order: ann, bob, cat.
  EXPECT_EQ(out->GetRow(0)[0], Value("ann"));
  EXPECT_EQ(out->GetRow(0)[1], Value(15.0));
  EXPECT_EQ(out->GetRow(1)[0], Value("bob"));
  EXPECT_EQ(out->GetRow(1)[1], Value(35.0));
  EXPECT_EQ(out->GetRow(2)[2], Value(int64_t{1}));
}

TEST(AggregateTest, CountSkipsNulls) {
  Table t(Schema({{"x", DataType::kInt64}}));
  ASSERT_TRUE(t.AppendRow({Value(1)}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null()}).ok());
  EvalContext ctx;
  std::vector<AggItem> aggs = {{AggFunc::kCount, Expr::Col("x"), "c"},
                               {AggFunc::kCountStar, nullptr, "n"}};
  auto out = ops::Aggregate(t, {}, aggs, ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->GetRow(0)[0], Value(int64_t{1}));
  EXPECT_EQ(out->GetRow(0)[1], Value(int64_t{2}));
}

TEST(AggregateTest, IntSumStaysInt) {
  Table t(Schema({{"x", DataType::kInt64}}));
  ASSERT_TRUE(t.AppendRow({Value(2)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(3)}).ok());
  EvalContext ctx;
  auto out =
      ops::Aggregate(t, {}, {{AggFunc::kSum, Expr::Col("x"), "s"}}, ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->schema().field(0).type, DataType::kInt64);
  EXPECT_EQ(out->GetRow(0)[0], Value(int64_t{5}));
}

TEST(AggregateTest, GroupByExpression) {
  Table t = Orders();
  EvalContext ctx;
  std::vector<GroupItem> groups = {
      {Expr::Bin(BinaryOp::kMod, Expr::Col("id"), Expr::Lit(2)), "parity"}};
  auto out = ops::Aggregate(t, groups,
                            {{AggFunc::kCountStar, nullptr, "n"}}, ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 2u);
}

TEST(RunningAggregateTest, IncrementalMatchesBatch) {
  ops::RunningAggregate sum(AggFunc::kSum);
  ops::RunningAggregate cnt(AggFunc::kCount);
  ops::RunningAggregate avg(AggFunc::kAvg);
  Column batch1(DataType::kInt64);
  batch1.AppendInt(1);
  batch1.AppendInt(2);
  Column batch2(DataType::kInt64);
  batch2.AppendInt(3);
  batch2.AppendNull();
  for (auto* agg : {&sum, &cnt, &avg}) {
    ASSERT_TRUE(agg->Update(batch1).ok());
    ASSERT_TRUE(agg->Update(batch2).ok());
  }
  EXPECT_EQ(sum.Current(), Value(int64_t{6}));
  EXPECT_EQ(cnt.Current(), Value(int64_t{3}));
  EXPECT_EQ(avg.Current(), Value(2.0));
  sum.Reset();
  EXPECT_TRUE(sum.Current().is_null());
}

TEST(SortTest, SingleKeyAscending) {
  Table t = Orders();
  EvalContext ctx;
  auto perm = ops::SortIndices(t, {{Expr::Col("amount"), true}}, ctx);
  ASSERT_TRUE(perm.ok());
  EXPECT_EQ(*perm, (SelVector{2, 0, 4, 1, 3}));
}

TEST(SortTest, DescendingAndSecondary) {
  Table t = Orders();
  EvalContext ctx;
  // cust desc, amount asc.
  auto sorted = ops::SortTable(
      t, {{Expr::Col("cust"), false}, {Expr::Col("amount"), true}}, ctx);
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ(sorted->GetRow(0)[1], Value("cat"));
  EXPECT_EQ(sorted->GetRow(1)[1], Value("bob"));
  EXPECT_EQ(sorted->GetRow(1)[2], Value(15.0));
}

TEST(SortTest, NullsFirstAscending) {
  Table t(Schema({{"x", DataType::kInt64}}));
  ASSERT_TRUE(t.AppendRow({Value(5)}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null()}).ok());
  ASSERT_TRUE(t.AppendRow({Value(1)}).ok());
  EvalContext ctx;
  auto perm = ops::SortIndices(t, {{Expr::Col("x"), true}}, ctx);
  ASSERT_TRUE(perm.ok());
  EXPECT_EQ(*perm, (SelVector{1, 2, 0}));
}

TEST(SortTest, StableOnTies) {
  Table t(Schema({{"k", DataType::kInt64}, {"i", DataType::kInt64}}));
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(i % 2), Value(i)}).ok());
  }
  EvalContext ctx;
  auto perm = ops::SortIndices(t, {{Expr::Col("k"), true}}, ctx);
  ASSERT_TRUE(perm.ok());
  EXPECT_EQ(*perm, (SelVector{0, 2, 4, 1, 3, 5}));
}

TEST(SortTest, TopNWithAndWithoutKeys) {
  Table t = Orders();
  EvalContext ctx;
  auto top = ops::TopNIndices(t, {{Expr::Col("amount"), false}}, 2, ctx);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(*top, (SelVector{3, 1}));
  // No keys: arrival order.
  top = ops::TopNIndices(t, {}, 3, ctx);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(*top, (SelVector{0, 1, 2}));
  // n larger than table.
  top = ops::TopNIndices(t, {}, 100, ctx);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(top->size(), 5u);
}

TEST(JoinTest, MaterializeEmptyMatches) {
  Table orders = Orders();
  Table pay = Payments();
  auto joined = ops::MaterializeJoin(orders, pay, {});
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->num_rows(), 0u);
  EXPECT_EQ(joined->schema().num_fields(),
            orders.num_columns() + pay.num_columns());
}

TEST(JoinTest, EmptyInputsYieldNoMatches) {
  Table empty(Orders().schema());
  Table pay = Payments();
  auto m = ops::HashJoinIndices(empty, pay, {{"id", "order_id"}});
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m->left.empty());
  EvalContext ctx;
  auto nl = ops::NestedLoopJoin(empty, pay, *Expr::Lit(Value(true)), ctx);
  ASSERT_TRUE(nl.ok());
  EXPECT_TRUE(nl->left.empty());
}

TEST(JoinTest, MissingKeyColumnRejected) {
  Table orders = Orders();
  Table pay = Payments();
  EXPECT_FALSE(ops::HashJoinIndices(orders, pay, {{"nope", "order_id"}}).ok());
  EXPECT_FALSE(ops::HashJoinIndices(orders, pay, {}).ok());
}

TEST(JoinTest, PhysicalKeyTypeMismatchRejected) {
  Table a(Schema({{"k", DataType::kInt64}}));
  Table b(Schema({{"k2", DataType::kDouble}}));
  auto m = ops::HashJoinIndices(a, b, {{"k", "k2"}});
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kTypeMismatch);
}

TEST(ProjectTest, EmptyInputKeepsSchema) {
  Table t(Orders().schema());
  EvalContext ctx;
  auto out = ops::Project(
      t, {{Expr::Bin(BinaryOp::kMul, Expr::Col("amount"), Expr::Lit(2)), "d"}},
      ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 0u);
  EXPECT_EQ(out->schema().field(0).type, DataType::kDouble);
}

// Top-n selection must equal the stable sort's prefix for every input
// shape: pre-sorted (the O(n) prefix check), reverse-sorted and random,
// with ties, NULLs, DESC and multi-key orders.
TEST(SortTest, TopNEqualsStableSortPrefix) {
  EvalContext ctx;
  const std::vector<std::vector<SortKey>> orders = {
      {{Expr::Col("a"), true}},
      {{Expr::Col("a"), false}},
      {{Expr::Col("a"), true}, {Expr::Col("b"), false}},
      {{Expr::Col("b"), false}, {Expr::Col("a"), true}},
      {{Expr::Col("d"), true}}};
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Random rng(seed);
    const size_t n = 1 + rng.Uniform(300);
    for (int shape = 0; shape < 3; ++shape) {
      Table t(Schema({{"a", DataType::kInt64},
                      {"b", DataType::kString},
                      {"d", DataType::kDouble}}));
      for (size_t i = 0; i < n; ++i) {
        int64_t a = rng.UniformRange(0, 20);  // random, with ties
        if (shape == 0) a = static_cast<int64_t>(i / 3);
        if (shape == 1) a = static_cast<int64_t>(n - i / 3);
        const Value av = rng.Bernoulli(0.05) ? Value::Null() : Value(a);
        const Value bv = rng.Bernoulli(0.05)
                             ? Value::Null()
                             : Value(std::string(1, 'a' + rng.Uniform(4)));
        const Value dv =
            rng.Bernoulli(0.05)
                ? Value(std::nan(""))
                : Value(static_cast<double>(rng.UniformRange(-5, 5)));
        ASSERT_TRUE(t.AppendRow({av, bv, dv}).ok());
      }
      for (const std::vector<SortKey>& keys : orders) {
        auto sorted = ops::SortIndices(t, keys, ctx);
        ASSERT_TRUE(sorted.ok());
        for (size_t k : {size_t{1}, size_t{7}, n / 2, n, n + 5}) {
          auto top = ops::TopNIndices(t, keys, k, ctx);
          ASSERT_TRUE(top.ok());
          SelVector expect(sorted->begin(),
                           sorted->begin() + static_cast<std::ptrdiff_t>(
                                                 std::min(k, n)));
          EXPECT_EQ(*top, expect) << "seed " << seed << " shape " << shape
                                  << " n " << n << " k " << k;
        }
      }
    }
  }
}

TEST(SortTest, TopNTiesInArrivalOrderNullsFirst) {
  Table t(Schema({{"k", DataType::kInt64}}));
  for (const Value& v : {Value(2), Value(1), Value::Null(), Value(1),
                         Value::Null(), Value(2)}) {
    ASSERT_TRUE(t.AppendRow({v}).ok());
  }
  EvalContext ctx;
  auto top = ops::TopNIndices(t, {{Expr::Col("k"), true}}, 4, ctx);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(*top, (SelVector{2, 4, 1, 3}));
  top = ops::TopNIndices(t, {{Expr::Col("k"), false}}, 3, ctx);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(*top, (SelVector{0, 5, 1}));
}

TEST(SortTest, NaNSortsAfterNumbers) {
  Table t(Schema({{"d", DataType::kDouble}}));
  for (double v : {2.0, std::nan(""), -1.0, std::nan(""), 0.5}) {
    ASSERT_TRUE(t.AppendRow({Value(v)}).ok());
  }
  EvalContext ctx;
  auto perm = ops::SortIndices(t, {{Expr::Col("d"), true}}, ctx);
  ASSERT_TRUE(perm.ok());
  EXPECT_EQ(*perm, (SelVector{2, 4, 0, 1, 3}));
  auto top = ops::TopNIndices(t, {{Expr::Col("d"), false}}, 3, ctx);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(*top, (SelVector{1, 3, 0}));
}

TEST(AggregateTest, MinMaxOverStrings) {
  Table t = Orders();
  EvalContext ctx;
  auto out = ops::Aggregate(t, {},
                            {{AggFunc::kMin, Expr::Col("cust"), "lo"},
                             {AggFunc::kMax, Expr::Col("cust"), "hi"}},
                            ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->GetRow(0)[0], Value("ann"));
  EXPECT_EQ(out->GetRow(0)[1], Value("cat"));
}

TEST(AggregateTest, SumOfStringsRejected) {
  Table t = Orders();
  EvalContext ctx;
  auto out =
      ops::Aggregate(t, {}, {{AggFunc::kSum, Expr::Col("cust"), "s"}}, ctx);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kTypeMismatch);
}

TEST(AggregateTest, NullGroupKeysFormAGroup) {
  Table t(Schema({{"g", DataType::kInt64}, {"v", DataType::kInt64}}));
  ASSERT_TRUE(t.AppendRow({Value::Null(), Value(1)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(7), Value(2)}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null(), Value(3)}).ok());
  EvalContext ctx;
  auto out = ops::Aggregate(t, {{Expr::Col("g"), "g"}},
                            {{AggFunc::kSum, Expr::Col("v"), "s"}}, ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 2u);
  // First-seen order: the NULL group first with sum 4.
  EXPECT_TRUE(out->GetRow(0)[0].is_null());
  EXPECT_EQ(out->GetRow(0)[1], Value(int64_t{4}));
}

// --- Grouped aggregation against a plain reference ------------------------
// The reference groups rows by a boxed key (validity, then the cell's bit
// pattern or string), in first-seen order, and folds each group row by
// row: int64 sums wrap as uint64, double sums add in row order, min/max
// keep the incumbent unless the challenger is strictly better, and int avg
// divides the exact integer sum.

struct RefCell {
  bool valid = false;
  uint64_t bits = 0;
  std::string str;
  bool operator==(const RefCell& o) const {
    return valid == o.valid && (!valid || (bits == o.bits && str == o.str));
  }
};

RefCell CellOf(const Column& c, size_t i) {
  RefCell cell;
  cell.valid = c.IsValid(i);
  if (!cell.valid) return cell;
  switch (c.type()) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      cell.bits = static_cast<uint64_t>(c.ints()[i]);
      break;
    case DataType::kDouble:
      std::memcpy(&cell.bits, &c.doubles()[i], sizeof(double));
      break;
    case DataType::kBool:
      cell.bits = c.bools()[i];
      break;
    case DataType::kString:
      cell.str = c.strings()[i];
      break;
  }
  return cell;
}

// True if cell a sorts strictly before b (both valid, same column type).
bool RefLess(DataType t, const RefCell& a, const RefCell& b) {
  switch (t) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      return static_cast<int64_t>(a.bits) < static_cast<int64_t>(b.bits);
    case DataType::kDouble: {
      double x, y;
      std::memcpy(&x, &a.bits, sizeof(double));
      std::memcpy(&y, &b.bits, sizeof(double));
      return x < y;
    }
    case DataType::kBool:
      return a.bits < b.bits;
    case DataType::kString:
      return a.str < b.str;
  }
  return false;
}

// Expected output cell of one aggregate over the rows of one group.
RefCell RefAggregate(AggFunc func, const Column& arg,
                     const std::vector<size_t>& rows) {
  RefCell out;
  out.valid = true;
  if (func == AggFunc::kCountStar) {
    out.bits = rows.size();
    return out;
  }
  int64_t count = 0;
  uint64_t isum = 0;
  double dsum = 0;
  RefCell ext;
  for (size_t r : rows) {
    if (!arg.IsValid(r)) continue;
    const RefCell v = CellOf(arg, r);
    if (arg.type() == DataType::kDouble) {
      dsum += arg.doubles()[r];
    } else if (IsIntegerPhysical(arg.type())) {
      isum += static_cast<uint64_t>(arg.ints()[r]);
    }
    const bool better = func == AggFunc::kMin ? RefLess(arg.type(), v, ext)
                                              : RefLess(arg.type(), ext, v);
    if (count == 0 || better) ext = v;
    ++count;
  }
  const bool is_double = arg.type() == DataType::kDouble;
  switch (func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      out.bits = static_cast<uint64_t>(count);
      return out;
    case AggFunc::kSum:
      if (count == 0) return RefCell{};
      if (is_double) {
        std::memcpy(&out.bits, &dsum, sizeof(double));
      } else {
        out.bits = isum;
      }
      return out;
    case AggFunc::kAvg: {
      if (count == 0) return RefCell{};
      const double sum =
          is_double ? dsum : static_cast<double>(static_cast<int64_t>(isum));
      const double avg = sum / static_cast<double>(count);
      std::memcpy(&out.bits, &avg, sizeof(double));
      return out;
    }
    case AggFunc::kMin:
    case AggFunc::kMax:
      return count == 0 ? RefCell{} : ext;
  }
  return out;
}

// A random table with every key type, NULLs in every column, both signed
// zeros, two NaN payloads, and int values near the int64 limits.
Table RandomGroupTable(size_t n, uint64_t seed) {
  Random rng(seed);
  Table t(Schema({{"ki", DataType::kInt64},
                  {"kd", DataType::kDouble},
                  {"ks", DataType::kString},
                  {"kb", DataType::kBool},
                  {"vi", DataType::kInt64},
                  {"vd", DataType::kDouble}}));
  const double nan_a = std::nan("1");
  const double nan_b = std::nan("2");
  const double doubles[] = {0.0, -0.0, 1.5, -2.25, nan_a, nan_b};
  const char* strings[] = {"", "a", "ab", "b"};
  const int64_t big[] = {INT64_MAX, INT64_MIN, INT64_MAX - 1,
                         (int64_t{1} << 53) + 1, int64_t{1} << 53};
  for (size_t i = 0; i < n; ++i) {
    Row row;
    const auto maybe_null = [&](Value v) {
      return rng.Bernoulli(0.1) ? Value::Null() : std::move(v);
    };
    row.push_back(maybe_null(Value(rng.UniformRange(-3, 3))));
    row.push_back(maybe_null(Value(doubles[rng.Uniform(6)])));
    row.push_back(maybe_null(Value(strings[rng.Uniform(4)])));
    row.push_back(maybe_null(Value(rng.Bernoulli(0.5))));
    row.push_back(maybe_null(Value(rng.Bernoulli(0.2)
                                       ? big[rng.Uniform(5)]
                                       : rng.UniformRange(-1000, 1000))));
    row.push_back(maybe_null(Value(rng.Bernoulli(0.05)
                                       ? doubles[rng.Uniform(6)]
                                       : rng.NextDouble() * 100 - 50)));
    EXPECT_TRUE(t.AppendRow(row).ok());
  }
  return t;
}

TEST(AggregateTest, GroupByMatchesPlainReference) {
  const char* key_names[] = {"ki", "kd", "ks", "kb"};
  const std::vector<std::pair<AggFunc, const char*>> agg_specs = {
      {AggFunc::kCountStar, nullptr}, {AggFunc::kCount, "vi"},
      {AggFunc::kSum, "vi"},          {AggFunc::kSum, "vd"},
      {AggFunc::kAvg, "vi"},          {AggFunc::kAvg, "vd"},
      {AggFunc::kMin, "vi"},          {AggFunc::kMax, "vi"},
      {AggFunc::kMin, "vd"},          {AggFunc::kMax, "vd"},
      {AggFunc::kMin, "ks"},          {AggFunc::kMax, "ks"},
      {AggFunc::kMin, "kb"},          {AggFunc::kMax, "kb"}};
  EvalContext ctx;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Random rng(seed * 7919);
    const size_t n = rng.Uniform(4) == 0 ? 0 : rng.Uniform(400);
    Table t = RandomGroupTable(n, seed);
    // A random non-empty subset of the key columns, in random order.
    std::vector<size_t> keys;
    for (size_t k = 0; k < 4; ++k) {
      if (rng.Bernoulli(0.5)) keys.push_back(k);
    }
    if (keys.empty()) keys.push_back(rng.Uniform(4));
    if (rng.Bernoulli(0.5)) std::reverse(keys.begin(), keys.end());
    std::vector<GroupItem> groups;
    for (size_t k : keys) groups.push_back({Expr::Col(key_names[k]), key_names[k]});
    std::vector<AggItem> aggs;
    for (size_t a = 0; a < agg_specs.size(); ++a) {
      const auto& [func, col] = agg_specs[a];
      aggs.push_back({func, col == nullptr ? nullptr : Expr::Col(col),
                      "a" + std::to_string(a)});
    }
    auto out = ops::Aggregate(t, groups, aggs, ctx);
    ASSERT_TRUE(out.ok()) << out.status().ToString();

    // Reference grouping: first-seen order, linear search over keys.
    std::vector<std::vector<RefCell>> ref_keys;
    std::vector<std::vector<size_t>> ref_rows;
    for (size_t r = 0; r < n; ++r) {
      std::vector<RefCell> key;
      for (size_t k : keys) key.push_back(CellOf(t.column(k), r));
      size_t g = 0;
      while (g < ref_keys.size() && !(ref_keys[g] == key)) ++g;
      if (g == ref_keys.size()) {
        ref_keys.push_back(key);
        ref_rows.emplace_back();
      }
      ref_rows[g].push_back(r);
    }
    ASSERT_EQ(out->num_rows(), ref_keys.size()) << "seed " << seed;
    for (size_t g = 0; g < ref_keys.size(); ++g) {
      for (size_t k = 0; k < keys.size(); ++k) {
        EXPECT_TRUE(CellOf(out->column(k), g) == ref_keys[g][k])
            << "seed " << seed << " group " << g << " key " << k;
      }
      for (size_t a = 0; a < aggs.size(); ++a) {
        const Column& arg = agg_specs[a].second == nullptr
                                ? t.column(0)
                                : *t.GetColumn(agg_specs[a].second).value();
        EXPECT_TRUE(CellOf(out->column(keys.size() + a), g) ==
                    RefAggregate(agg_specs[a].first, arg, ref_rows[g]))
            << "seed " << seed << " group " << g << " agg " << a;
      }
    }
  }
}

TEST(AggregateTest, DoubleKeysGroupByBitPattern) {
  Table t(Schema({{"k", DataType::kDouble}}));
  const double nan_a = std::nan("1");
  const double nan_b = std::nan("2");
  for (double v : {0.0, -0.0, nan_a, nan_b, 0.0, nan_a, -0.0}) {
    ASSERT_TRUE(t.AppendRow({Value(v)}).ok());
  }
  EvalContext ctx;
  auto out = ops::Aggregate(t, {{Expr::Col("k"), "k"}},
                            {{AggFunc::kCountStar, nullptr, "n"}}, ctx);
  ASSERT_TRUE(out.ok());
  // 0.0, -0.0 and the two NaN payloads are four groups, in first-seen
  // order.
  ASSERT_EQ(out->num_rows(), 4u);
  EXPECT_FALSE(std::signbit(out->column(0).doubles()[0]));
  EXPECT_TRUE(std::signbit(out->column(0).doubles()[1]));
  EXPECT_EQ(out->column(1).ints(), (std::vector<int64_t>{2, 2, 2, 1}));
}

TEST(AggregateTest, GroupedEmptyInputHasNoRows) {
  Table t(Schema({{"g", DataType::kString}, {"v", DataType::kDouble}}));
  EvalContext ctx;
  auto out = ops::Aggregate(t, {{Expr::Col("g"), "g"}},
                            {{AggFunc::kSum, Expr::Col("v"), "s"},
                             {AggFunc::kCountStar, nullptr, "n"}},
                            ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 0u);
  ASSERT_EQ(out->num_columns(), 3u);
  EXPECT_EQ(out->schema().field(1).type, DataType::kDouble);
}

TEST(AggregateTest, AllNullArgumentsGiveNullSumAndZeroCount) {
  Table t(Schema({{"g", DataType::kInt64}, {"v", DataType::kInt64}}));
  ASSERT_TRUE(t.AppendRow({Value(1), Value::Null()}).ok());
  ASSERT_TRUE(t.AppendRow({Value(1), Value::Null()}).ok());
  EvalContext ctx;
  auto out = ops::Aggregate(t, {{Expr::Col("g"), "g"}},
                            {{AggFunc::kSum, Expr::Col("v"), "s"},
                             {AggFunc::kCount, Expr::Col("v"), "c"},
                             {AggFunc::kAvg, Expr::Col("v"), "a"},
                             {AggFunc::kMin, Expr::Col("v"), "mn"},
                             {AggFunc::kCountStar, nullptr, "n"}},
                            ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 1u);
  const Row row = out->GetRow(0);
  EXPECT_TRUE(row[1].is_null());
  EXPECT_EQ(row[2], Value(int64_t{0}));
  EXPECT_TRUE(row[3].is_null());
  EXPECT_TRUE(row[4].is_null());
  EXPECT_EQ(row[5], Value(int64_t{2}));
}

TEST(AggregateTest, GroupedIntSumWrapsAround) {
  Table t(Schema({{"g", DataType::kInt64}, {"v", DataType::kInt64}}));
  ASSERT_TRUE(t.AppendRow({Value(0), Value(INT64_MAX)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(0), Value(2)}).ok());
  EvalContext ctx;
  auto out = ops::Aggregate(t, {{Expr::Col("g"), "g"}},
                            {{AggFunc::kSum, Expr::Col("v"), "s"}}, ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->GetRow(0)[1], Value(INT64_MIN + 1));
}

// Grouped int64 min/max compare exactly; they used to compare as double,
// where 2^53 and 2^53 + 1 tie and the first value seen won.
TEST(AggregateTest, GroupedIntMinMaxExactBeyond2Pow53) {
  const int64_t lo = int64_t{1} << 53;
  Table t(Schema({{"g", DataType::kInt64}, {"v", DataType::kInt64}}));
  ASSERT_TRUE(t.AppendRow({Value(0), Value(lo + 1)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(0), Value(lo)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(1), Value(lo)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(1), Value(lo + 1)}).ok());
  EvalContext ctx;
  auto out = ops::Aggregate(t, {{Expr::Col("g"), "g"}},
                            {{AggFunc::kMin, Expr::Col("v"), "mn"},
                             {AggFunc::kMax, Expr::Col("v"), "mx"}},
                            ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 2u);
  for (size_t g = 0; g < 2; ++g) {
    EXPECT_EQ(out->GetRow(g)[1], Value(lo)) << "group " << g;
    EXPECT_EQ(out->GetRow(g)[2], Value(lo + 1)) << "group " << g;
  }
}

// Grouped int avg divides the exact integer sum, as the global fold does;
// it used to add each value into a double, losing the small addends.
TEST(AggregateTest, GroupedIntAvgUsesExactSum) {
  const int64_t big = int64_t{1} << 53;
  Table t(Schema({{"g", DataType::kInt64}, {"v", DataType::kInt64}}));
  for (int64_t v : {big, int64_t{1}, int64_t{1}}) {
    ASSERT_TRUE(t.AppendRow({Value(0), Value(v)}).ok());
  }
  EvalContext ctx;
  const std::vector<AggItem> aggs = {{AggFunc::kAvg, Expr::Col("v"), "a"}};
  auto grouped = ops::Aggregate(t, {{Expr::Col("g"), "g"}}, aggs, ctx);
  auto global = ops::Aggregate(t, {}, aggs, ctx);
  ASSERT_TRUE(grouped.ok());
  ASSERT_TRUE(global.ok());
  const double expect = static_cast<double>(big + 2) / 3.0;
  EXPECT_EQ(grouped->GetRow(0)[1], Value(expect));
  EXPECT_EQ(global->GetRow(0)[0], Value(expect));
  EXPECT_NE(expect, (static_cast<double>(big) + 1.0 + 1.0) / 3.0);
}

TEST(AggregateTest, ManyGroupsKeepFirstSeenOrder) {
  // More distinct keys than the group table's initial 64k slots hold at
  // half load, so it grows while groups keep arriving.
  Table t(Schema({{"k", DataType::kInt64}}));
  std::vector<int64_t> order;
  Random rng(99);
  for (int i = 0; i < 40000; ++i) {
    order.push_back(static_cast<int64_t>(rng.Next() >> 1));
  }
  // Every key twice, the second pass after the table has grown.
  for (int pass = 0; pass < 2; ++pass) {
    for (const int64_t k : order) t.column(0).AppendInt(k);
  }
  EvalContext ctx;
  auto out = ops::Aggregate(t, {{Expr::Col("k"), "k"}},
                            {{AggFunc::kCountStar, nullptr, "n"}}, ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->column(0).ints(), order);
  for (size_t g = 0; g < out->num_rows(); ++g) {
    ASSERT_EQ(out->column(1).ints()[g], 2);
  }
}

TEST(DeleteTest, DeleteWhere) {
  Table t = Orders();
  EvalContext ctx;
  auto n = ops::DeleteWhere(
      &t, *Expr::Bin(BinaryOp::kEq, Expr::Col("cust"), Expr::Lit("bob")), ctx);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 2u);
  EXPECT_EQ(t.num_rows(), 3u);
  // Remaining ids: 1, 3, 4.
  EXPECT_EQ(t.GetRow(2)[0], Value(4));
}

TEST(DeleteTest, KeepOnly) {
  Table t = Orders();
  ASSERT_TRUE(ops::KeepOnly(&t, {0, 2}).ok());
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.GetRow(1)[0], Value(3));
}

// ---------------------------------------------------------------------------
// Vectorized kernel layer (DESIGN.md §12). The determinism contract says
// every backend × dispatch combination produces byte-identical output, so
// these tests run each input through the forced-scalar path, the active
// SIMD path and the SIMD+morsel path and compare results bit-for-bit.

Column RandomIntColumn(size_t n, uint32_t mod, uint64_t seed) {
  Random rng(seed);
  Column c(DataType::kInt64);
  c.ints().reserve(n);
  for (size_t i = 0; i < n; ++i) {
    c.AppendInt(static_cast<int64_t>(rng.Uniform(mod)));
  }
  return c;
}

Column RandomDoubleColumn(size_t n, uint64_t seed) {
  Random rng(seed);
  Column c(DataType::kDouble);
  c.doubles().reserve(n);
  for (size_t i = 0; i < n; ++i) {
    c.AppendDouble(static_cast<double>(rng.Uniform(1u << 20)) * 0.25);
  }
  return c;
}

// Bitwise equality for FoldState: double fields must match to the bit,
// not just compare equal (that is the byte-identity guarantee).
void ExpectFoldBitsEq(const simd::FoldState& a, const simd::FoldState& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.isum, b.isum);
  EXPECT_EQ(a.seen, b.seen);
  EXPECT_EQ(a.imin, b.imin);
  EXPECT_EQ(a.imax, b.imax);
  EXPECT_EQ(std::memcmp(&a.dsum, &b.dsum, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&a.dmin, &b.dmin, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&a.dmax, &b.dmax, sizeof(double)), 0);
}

TEST(VectorizedKernelTest, EmptyColumn) {
  Column i(DataType::kInt64);
  Column d(DataType::kDouble);
  EXPECT_TRUE(ops::kern::SelectCmpI64Col(i, simd::Cmp::kLt, 5).empty());
  EXPECT_TRUE(ops::kern::SelectRangeF64Col(d, 0.0, true, 1.0, true).empty());
  const simd::FoldState f = ops::kern::FoldNumeric(i);
  EXPECT_EQ(f.count, 0u);
  EXPECT_FALSE(f.seen);
}

TEST(VectorizedKernelTest, AllPassAndNonePass) {
  const size_t n = 2 * ops::kMorselRows + 7;  // spans a morsel boundary
  Column c = RandomIntColumn(n, 1000, 11);
  const SelVector all = ops::kern::SelectCmpI64Col(c, simd::Cmp::kLt, 1000);
  ASSERT_EQ(all.size(), n);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(all[i], static_cast<uint32_t>(i));
  EXPECT_TRUE(ops::kern::SelectCmpI64Col(c, simd::Cmp::kGe, 1000).empty());
}

TEST(VectorizedKernelTest, MorselBoundarySizesMatchScalar) {
  for (const size_t n :
       {ops::kMorselRows - 1, ops::kMorselRows, ops::kMorselRows + 1,
        2 * ops::kMorselRows - 1, 2 * ops::kMorselRows,
        2 * ops::kMorselRows + 1}) {
    Column ic = RandomIntColumn(n, 10000, n);
    Column dc = RandomDoubleColumn(n, n + 1);

    simd::SetForceScalar(true);
    const SelVector sel_s = ops::kern::SelectCmpI64Col(ic, simd::Cmp::kLt, 5000);
    const SelVector rng_s = ops::kern::SelectRangeF64Col(dc, 100.0, true,
                                                         200000.0, false);
    const simd::FoldState fold_s = ops::kern::FoldNumeric(dc);
    simd::SetForceScalar(false);

    const SelVector sel_v = ops::kern::SelectCmpI64Col(ic, simd::Cmp::kLt, 5000);
    const SelVector rng_v = ops::kern::SelectRangeF64Col(dc, 100.0, true,
                                                         200000.0, false);
    const simd::FoldState fold_v = ops::kern::FoldNumeric(dc);

    EXPECT_EQ(sel_s, sel_v) << "n=" << n;
    EXPECT_EQ(rng_s, rng_v) << "n=" << n;
    ExpectFoldBitsEq(fold_s, fold_v);
  }
}

TEST(VectorizedKernelTest, UnalignedHeadAfterErasePrefix) {
  const size_t n = ops::kMorselRows + 513;
  Column c = RandomIntColumn(n, 10000, 77);
  // Consuming a prefix advances the logical head: View() now points into
  // the middle of the allocation, so vector loads see an unaligned base.
  c.ErasePrefix(3);
  ASSERT_EQ(c.size(), n - 3);

  simd::SetForceScalar(true);
  const SelVector sel_s = ops::kern::SelectCmpI64Col(c, simd::Cmp::kGe, 5000);
  const simd::FoldState fold_s = ops::kern::FoldNumeric(c);
  simd::SetForceScalar(false);
  const SelVector sel_v = ops::kern::SelectCmpI64Col(c, simd::Cmp::kGe, 5000);
  const simd::FoldState fold_v = ops::kern::FoldNumeric(c);

  EXPECT_EQ(sel_s, sel_v);
  ExpectFoldBitsEq(fold_s, fold_v);
  // Spot-check against the row-at-a-time view of the same column.
  SelVector expected;
  for (size_t i = 0; i < c.size(); ++i) {
    if (c.ints()[i] >= 5000) expected.push_back(static_cast<uint32_t>(i));
  }
  EXPECT_EQ(sel_v, expected);
}

TEST(VectorizedKernelTest, MorselDispatchIsByteIdentical) {
  const size_t n = 3 * ops::kMorselRows + 1;
  Column ic = RandomIntColumn(n, 10000, 5);
  Column dc = RandomDoubleColumn(n, 6);
  std::vector<int64_t> keys(ic.ints().data(), ic.ints().data() + n);

  simd::SetForceScalar(true);
  const SelVector sel_s = ops::kern::SelectCmpI64Col(ic, simd::Cmp::kLt, 5000);
  const simd::FoldState fold_s = ops::kern::FoldNumeric(dc);
  const simd::FoldState fsel_s = ops::kern::FoldNumericSel(dc, sel_s);
  std::vector<uint64_t> hash_s;
  ops::kern::HashI64Span(keys.data(), n, &hash_s);
  simd::SetForceScalar(false);

  ops::PoolMorselExecutor pool(2);
  ops::ScopedMorselExecutor scoped(&pool);
  const SelVector sel_m = ops::kern::SelectCmpI64Col(ic, simd::Cmp::kLt, 5000);
  const simd::FoldState fold_m = ops::kern::FoldNumeric(dc);
  const simd::FoldState fsel_m = ops::kern::FoldNumericSel(dc, sel_m);
  std::vector<uint64_t> hash_m;
  ops::kern::HashI64Span(keys.data(), n, &hash_m);

  EXPECT_EQ(sel_s, sel_m);
  ExpectFoldBitsEq(fold_s, fold_m);
  ExpectFoldBitsEq(fsel_s, fsel_m);
  EXPECT_EQ(hash_s, hash_m);
}

TEST(VectorizedKernelTest, NullsRouteToValidityAwarePath) {
  Column c(DataType::kInt64);
  for (int i = 0; i < 100; ++i) {
    if (i % 7 == 0) {
      c.AppendNull();
    } else {
      c.AppendInt(i);
    }
  }
  const SelVector sel = ops::kern::SelectCmpI64Col(c, simd::Cmp::kGe, 50);
  for (uint32_t r : sel) {
    EXPECT_TRUE(c.IsValid(r));
    EXPECT_GE(c.ints()[r], 50);
  }
  const simd::FoldState f = ops::kern::FoldNumeric(c);
  EXPECT_EQ(f.count, 85u);  // 15 of 100 are null
}

// A writer keeps appending to the live column while pool workers run
// morselized kernels over a COW snapshot taken beforehand. The snapshot
// pins the old buffer, so the readers' results must stay stable and the
// run must be race-free under TSan.
TEST(VectorizedKernelTest, ConcurrentMorselReadersVsSnapshotWriter) {
  const size_t n = 2 * ops::kMorselRows;
  Column live = RandomIntColumn(n, 10000, 21);
  Column snapshot = live;  // COW: shares the buffer until the writer detaches

  const SelVector expected =
      ops::kern::SelectCmpI64Col(snapshot, simd::Cmp::kLt, 5000);
  const simd::FoldState expected_fold = ops::kern::FoldNumeric(snapshot);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      live.AppendInt(1);  // first append detaches from the snapshot
    }
  });

  {
    ops::PoolMorselExecutor pool(2);
    ops::ScopedMorselExecutor scoped(&pool);
    for (int round = 0; round < 20; ++round) {
      const SelVector sel =
          ops::kern::SelectCmpI64Col(snapshot, simd::Cmp::kLt, 5000);
      EXPECT_EQ(sel, expected);
      ExpectFoldBitsEq(ops::kern::FoldNumeric(snapshot), expected_fold);
    }
  }
  stop.store(true);
  writer.join();
  EXPECT_GT(live.size(), n);
}

}  // namespace
}  // namespace datacell
