// Property-based tests: randomized invariants that must hold for any
// input, checked against brute-force oracles.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string_view>

#include "core/basket.h"
#include "core/basket_expression.h"
#include "core/scheduler.h"
#include "core/strategy.h"
#include "net/codec.h"
#include "ops/aggregate.h"
#include "ops/join.h"
#include "ops/select.h"
#include "ops/sort.h"
#include "sql/session.h"
#include "util/clock.h"
#include "util/random.h"

namespace datacell {
namespace {

// Decodes one tuple line into a fresh table and boxes it back into a Row.
Result<Row> DecodeOne(const net::Codec& codec, std::string_view line) {
  Table t(codec.schema());
  RETURN_NOT_OK(codec.DecodeInto(line, &t));
  return t.GetRow(0);
}

Schema StreamSchema() {
  return Schema({{"tag", DataType::kTimestamp}, {"payload", DataType::kInt64}});
}

Table RandomStream(Random* rng, size_t n, int64_t payload_range = 100) {
  Table t(StreamSchema());
  for (size_t i = 0; i < n; ++i) {
    t.column(0).AppendInt(static_cast<int64_t>(i));
    t.column(1).AppendInt(
        static_cast<int64_t>(rng->Uniform(static_cast<uint64_t>(payload_range))));
  }
  return t;
}

// ---------------------------------------------------------------------------
// Basket conservation: appended == consumed + still-stored + dropped.
// ---------------------------------------------------------------------------

class BasketConservationTest : public ::testing::TestWithParam<int> {};

TEST_P(BasketConservationTest, TupleAccounting) {
  Random rng(static_cast<uint64_t>(GetParam()));
  core::Basket basket("b", StreamSchema());
  basket.AddConstraint(
      Expr::Bin(BinaryOp::kLt, Expr::Col("payload"), Expr::Lit(80)));
  for (int step = 0; step < 50; ++step) {
    const int action = static_cast<int>(rng.Uniform(5));
    switch (action) {
      case 0:
      case 1: {  // append
        Table batch = RandomStream(&rng, rng.Uniform(20));
        ASSERT_TRUE(basket.Append(batch, step).ok());
        break;
      }
      case 2: {  // take some rows
        const size_t size = basket.size();
        if (size == 0) break;
        SelVector sel;
        for (uint32_t i = 0; i < size; ++i) {
          if (rng.Bernoulli(0.3)) sel.push_back(i);
        }
        ASSERT_TRUE(basket.TakeRows(sel).ok());
        break;
      }
      case 3:  // take everything
        basket.TakeAll();
        break;
      case 4: {  // toggle flow control
        if (basket.enabled()) {
          basket.Disable();
        } else {
          basket.Enable();
        }
        break;
      }
    }
    const core::Basket::Stats stats = basket.stats();
    EXPECT_EQ(stats.appended, stats.consumed + basket.size())
        << "conservation violated at step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BasketConservationTest,
                         ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Basket expression partition: result ∪ remainder == original (kMatched).
// ---------------------------------------------------------------------------

class BasketExprPartitionTest : public ::testing::TestWithParam<int> {};

TEST_P(BasketExprPartitionTest, MatchedPlusRemainderIsOriginal) {
  Random rng(1000 + static_cast<uint64_t>(GetParam()));
  auto basket = std::make_shared<core::Basket>("b", StreamSchema());
  Table original = RandomStream(&rng, 200);
  ASSERT_TRUE(basket->Append(original, 0).ok());

  const int64_t lo = static_cast<int64_t>(rng.Uniform(90));
  core::BasketExpression be(basket);
  be.Where(Expr::Bin(
      BinaryOp::kAnd,
      Expr::Bin(BinaryOp::kGe, Expr::Col("payload"), Expr::Lit(lo)),
      Expr::Bin(BinaryOp::kLt, Expr::Col("payload"), Expr::Lit(lo + 20))));
  EvalContext ctx;
  auto result = be.Evaluate(ctx);
  ASSERT_TRUE(result.ok());
  Table remainder = basket->Peek();

  // Multiset of payloads must partition the original.
  std::multiset<int64_t> expect, got;
  for (int64_t v : original.column(1).ints()) expect.insert(v);
  ASSERT_TRUE(result->num_columns() >= 2);
  for (int64_t v : result->column(1).ints()) {
    got.insert(v);
    EXPECT_GE(v, lo);
    EXPECT_LT(v, lo + 20);
  }
  for (int64_t v : remainder.column(1).ints()) {
    got.insert(v);
    EXPECT_FALSE(v >= lo && v < lo + 20) << "unmatched tuple was kept back";
  }
  EXPECT_EQ(expect, got);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BasketExprPartitionTest,
                         ::testing::Range(1, 11));

// ---------------------------------------------------------------------------
// Strategy equivalence: all §4.2 strategies produce identical per-query
// result multisets for disjoint range queries.
// ---------------------------------------------------------------------------

class StrategyEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(StrategyEquivalenceTest, AllStrategiesAgree) {
  const uint64_t seed = 2000 + static_cast<uint64_t>(GetParam());
  // Disjoint deciles of [0, 100).
  std::vector<core::ContinuousQuery> queries;
  for (int i = 0; i < 5; ++i) {
    queries.push_back(
        {"q" + std::to_string(i),
         Expr::Bin(BinaryOp::kAnd,
                   Expr::Bin(BinaryOp::kGe, Expr::Col("payload"),
                             Expr::Lit(i * 20)),
                   Expr::Bin(BinaryOp::kLt, Expr::Col("payload"),
                             Expr::Lit((i + 1) * 20)))});
  }
  const size_t batch = 50;

  auto run = [&](int strategy) -> std::vector<std::multiset<int64_t>> {
    SimulatedClock clock;
    Result<core::QueryNetwork> net = Status::OK();
    switch (strategy) {
      case 0:
        net = core::BuildSeparateBaskets(StreamSchema(), queries, batch);
        break;
      case 1:
        net = core::BuildSharedBaskets(StreamSchema(), queries, batch);
        break;
      default:
        net = core::BuildPartialDeleteChain(StreamSchema(), queries, batch);
        break;
    }
    EXPECT_TRUE(net.ok());
    core::Scheduler sched(&clock);
    net->RegisterAll(&sched);
    Random rng(seed);
    for (int round = 0; round < 4; ++round) {
      Table tuples = RandomStream(&rng, batch);
      EXPECT_TRUE(net->receptor->Deliver(tuples, clock.Now()).ok());
      EXPECT_TRUE(sched.RunUntilQuiescent().ok());
    }
    std::vector<std::multiset<int64_t>> out;
    for (const core::BasketPtr& b : net->outputs) {
      std::multiset<int64_t> s;
      Table t = b->Peek();
      auto col = t.GetColumn("payload");
      EXPECT_TRUE(col.ok());
      for (int64_t v : (*col)->ints()) s.insert(v);
      out.push_back(std::move(s));
    }
    return out;
  };

  auto separate = run(0);
  auto shared = run(1);
  auto partial = run(2);
  ASSERT_EQ(separate.size(), 5u);
  for (size_t q = 0; q < 5; ++q) {
    EXPECT_EQ(separate[q], shared[q]) << "shared differs on query " << q;
    EXPECT_EQ(separate[q], partial[q]) << "partial differs on query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyEquivalenceTest,
                         ::testing::Range(1, 7));

// ---------------------------------------------------------------------------
// Join: hash join equals nested-loop theta join on the same equality.
// ---------------------------------------------------------------------------

class JoinEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(JoinEquivalenceTest, HashEqualsNestedLoop) {
  Random rng(3000 + static_cast<uint64_t>(GetParam()));
  Table left(Schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}}));
  Table right(Schema({{"k2", DataType::kInt64}, {"w", DataType::kInt64}}));
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(left.AppendRow({Value(static_cast<int64_t>(rng.Uniform(10))),
                                Value(i)})
                    .ok());
  }
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(right.AppendRow({Value(static_cast<int64_t>(rng.Uniform(10))),
                                 Value(i)})
                    .ok());
  }
  auto hashed = ops::HashJoinIndices(left, right, {{"k", "k2"}});
  ASSERT_TRUE(hashed.ok());
  EvalContext ctx;
  auto looped = ops::NestedLoopJoin(
      left, right, *Expr::Bin(BinaryOp::kEq, Expr::Col("k"), Expr::Col("k2")),
      ctx);
  ASSERT_TRUE(looped.ok());
  // Compare as multisets of (left row, right row) pairs.
  auto pairs = [](const ops::JoinMatches& m) {
    std::multiset<std::pair<uint32_t, uint32_t>> out;
    for (size_t i = 0; i < m.left.size(); ++i) {
      out.emplace(m.left[i], m.right[i]);
    }
    return out;
  };
  EXPECT_EQ(pairs(*hashed), pairs(*looped));
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinEquivalenceTest, ::testing::Range(1, 7));

// ---------------------------------------------------------------------------
// Aggregation vs brute force.
// ---------------------------------------------------------------------------

class AggregateOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(AggregateOracleTest, GroupSumsMatchBruteForce) {
  Random rng(4000 + static_cast<uint64_t>(GetParam()));
  Table t(Schema({{"g", DataType::kInt64}, {"v", DataType::kInt64}}));
  std::map<int64_t, std::pair<int64_t, int64_t>> oracle;  // g -> (sum, count)
  const size_t n = 50 + rng.Uniform(200);
  for (size_t i = 0; i < n; ++i) {
    const int64_t g = static_cast<int64_t>(rng.Uniform(7));
    const int64_t v = rng.UniformRange(-50, 50);
    ASSERT_TRUE(t.AppendRow({Value(g), Value(v)}).ok());
    oracle[g].first += v;
    oracle[g].second += 1;
  }
  EvalContext ctx;
  auto out = ops::Aggregate(
      t, {{Expr::Col("g"), "g"}},
      {{ops::AggFunc::kSum, Expr::Col("v"), "s"},
       {ops::AggFunc::kCountStar, nullptr, "n"}},
      ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), oracle.size());
  for (size_t r = 0; r < out->num_rows(); ++r) {
    const int64_t g = out->column(0).ints()[r];
    ASSERT_TRUE(oracle.count(g) > 0);
    EXPECT_EQ(out->column(1).ints()[r], oracle[g].first);
    EXPECT_EQ(out->column(2).ints()[r], oracle[g].second);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregateOracleTest, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Sort: permutation + ordered.
// ---------------------------------------------------------------------------

class SortPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SortPropertyTest, SortedPermutation) {
  Random rng(5000 + static_cast<uint64_t>(GetParam()));
  Table t = RandomStream(&rng, 100 + rng.Uniform(100));
  EvalContext ctx;
  const bool asc = (GetParam() % 2) == 0;
  auto sorted = ops::SortTable(t, {{Expr::Col("payload"), asc}}, ctx);
  ASSERT_TRUE(sorted.ok());
  ASSERT_EQ(sorted->num_rows(), t.num_rows());
  // Ordered.
  const auto& v = sorted->column(1).ints();
  for (size_t i = 1; i < v.size(); ++i) {
    if (asc) {
      EXPECT_LE(v[i - 1], v[i]);
    } else {
      EXPECT_GE(v[i - 1], v[i]);
    }
  }
  // Permutation.
  std::multiset<int64_t> a(t.column(1).ints().begin(),
                           t.column(1).ints().end());
  std::multiset<int64_t> b(v.begin(), v.end());
  EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SortPropertyTest, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Codec round trip with hostile strings and nulls.
// ---------------------------------------------------------------------------

class CodecRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(CodecRoundTripTest, ArbitraryRowsSurvive) {
  Random rng(6000 + static_cast<uint64_t>(GetParam()));
  Schema schema({{"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"b", DataType::kBool},
                 {"s", DataType::kString}});
  net::Codec codec(schema);
  Table t(schema);
  const char alphabet[] = "ab|\\\nc'xyz0;, ";
  for (int r = 0; r < 50; ++r) {
    Row row;
    row.push_back(rng.Bernoulli(0.1) ? Value::Null()
                                     : Value(rng.UniformRange(-1000000, 1000000)));
    row.push_back(rng.Bernoulli(0.1)
                      ? Value::Null()
                      : Value(rng.NextDouble() * 1e6 - 5e5));
    row.push_back(rng.Bernoulli(0.1) ? Value::Null() : Value(rng.Bernoulli(0.5)));
    if (rng.Bernoulli(0.1)) {
      row.push_back(Value::Null());
    } else {
      std::string s;
      const size_t len = rng.Uniform(12);
      for (size_t c = 0; c < len; ++c) {
        s.push_back(alphabet[rng.Uniform(sizeof(alphabet) - 1)]);
      }
      row.push_back(Value(std::move(s)));
    }
    ASSERT_TRUE(t.AppendRow(row).ok());
  }
  for (size_t r = 0; r < t.num_rows(); ++r) {
    auto line = codec.EncodeRow(t, r);
    ASSERT_TRUE(line.ok());
    ASSERT_EQ(line->find('\n'), std::string::npos);
    auto row = DecodeOne(codec, *line);
    ASSERT_TRUE(row.ok()) << *line;
    Row expect = t.GetRow(r);
    ASSERT_EQ(row->size(), expect.size());
    for (size_t c = 0; c < expect.size(); ++c) {
      if (c == 1 && !expect[c].is_null()) {
        // Doubles round-trip through %.17g exactly.
        EXPECT_EQ((*row)[c].double_value(), expect[c].double_value());
      } else {
        EXPECT_EQ((*row)[c], expect[c]) << "row " << r << " col " << c;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecRoundTripTest, ::testing::Range(1, 7));

// ---------------------------------------------------------------------------
// SQL vs direct operators.
// ---------------------------------------------------------------------------

class SqlOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(SqlOracleTest, RangeQueryMatchesKernelScan) {
  SimulatedClock clock;
  core::Engine engine(&clock);
  sql::Session session(&engine);
  ASSERT_TRUE(session.Execute("create table t (payload int)").ok());

  Random rng(7000 + static_cast<uint64_t>(GetParam()));
  Table reference(Schema({{"payload", DataType::kInt64}}));
  std::string insert = "insert into t values ";
  const size_t n = 100;
  for (size_t i = 0; i < n; ++i) {
    const int64_t v = static_cast<int64_t>(rng.Uniform(1000));
    ASSERT_TRUE(reference.AppendRow({Value(v)}).ok());
    if (i) insert += ", ";
    insert += "(" + std::to_string(v) + ")";
  }
  ASSERT_TRUE(session.Execute(insert).ok());

  const int64_t lo = static_cast<int64_t>(rng.Uniform(900));
  const int64_t hi = lo + 50;
  auto via_sql = session.Execute(
      "select payload from t where payload >= " + std::to_string(lo) +
      " and payload < " + std::to_string(hi));
  ASSERT_TRUE(via_sql.ok());
  auto via_ops =
      ops::SelectRange(reference, "payload", Value(lo), true, Value(hi), false);
  ASSERT_TRUE(via_ops.ok());
  EXPECT_EQ(via_sql->num_rows(), via_ops->size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlOracleTest, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Table erase/keep partition with mixed types and nulls.
// ---------------------------------------------------------------------------

class TablePartitionTest : public ::testing::TestWithParam<int> {};

TEST_P(TablePartitionTest, EraseKeepComplement) {
  Random rng(8000 + static_cast<uint64_t>(GetParam()));
  Table t(Schema({{"i", DataType::kInt64}, {"s", DataType::kString}}));
  const size_t n = 40 + rng.Uniform(60);
  for (size_t r = 0; r < n; ++r) {
    Row row;
    row.push_back(rng.Bernoulli(0.15) ? Value::Null()
                                      : Value(static_cast<int64_t>(r)));
    row.push_back(Value("s" + std::to_string(r)));
    ASSERT_TRUE(t.AppendRow(row).ok());
  }
  SelVector erase, keep;
  for (uint32_t r = 0; r < n; ++r) {
    (rng.Bernoulli(0.4) ? erase : keep).push_back(r);
  }
  Table erased = t;
  ASSERT_TRUE(erased.EraseRows(erase).ok());
  Table kept = t;
  ASSERT_TRUE(kept.KeepRows(keep).ok());
  ASSERT_EQ(erased.num_rows(), kept.num_rows());
  for (size_t r = 0; r < erased.num_rows(); ++r) {
    EXPECT_EQ(erased.GetRow(r), kept.GetRow(r));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TablePartitionTest, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Codec null-ambiguity round trip: the identity must hold even for strings
// built from the protocol's own spellings — "NULL", "\N", escapes — which
// the generic alphabet above can never produce.
// ---------------------------------------------------------------------------

class CodecNullAmbiguityTest : public ::testing::TestWithParam<int> {};

TEST_P(CodecNullAmbiguityTest, AnyRowSurvivesTheWire) {
  Random rng(static_cast<uint64_t>(GetParam()) * 77 + 5);
  Schema schema({{"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"b", DataType::kBool},
                 {"s", DataType::kString}});
  net::Codec codec(schema);
  const std::vector<std::string> tokens = {
      "NULL", "\\N", "N", "|", "\\", "\n", "\\p", "a", "xyz", ":", ""};
  for (int iter = 0; iter < 200; ++iter) {
    Row row;
    row.push_back(rng.Bernoulli(0.15)
                      ? Value::Null()
                      : Value(rng.UniformRange(-1'000'000, 1'000'000)));
    row.push_back(rng.Bernoulli(0.15) ? Value::Null()
                                      : Value(rng.NextDouble() * 1e6 - 5e5));
    row.push_back(rng.Bernoulli(0.15) ? Value::Null()
                                      : Value(rng.Bernoulli(0.5)));
    if (rng.Bernoulli(0.15)) {
      row.push_back(Value::Null());
    } else {
      std::string s;
      const size_t pieces = rng.Uniform(5);
      for (size_t p = 0; p < pieces; ++p) s += tokens[rng.Uniform(tokens.size())];
      row.push_back(Value(s));
    }
    Table t(schema);
    ASSERT_TRUE(t.AppendRow(row).ok());
    auto line = codec.EncodeRow(t, 0);
    ASSERT_TRUE(line.ok());
    ASSERT_EQ(line->find('\n'), std::string::npos);
    auto decoded = DecodeOne(codec, *line);
    ASSERT_TRUE(decoded.ok()) << *line;
    EXPECT_EQ(*decoded, row) << *line;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecNullAmbiguityTest, ::testing::Range(1, 9));

// Schema headers round-trip for any field name (escaped like values).
class SchemaHeaderRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(SchemaHeaderRoundTripTest, AnyFieldNameSurvivesTheHandshake) {
  Random rng(static_cast<uint64_t>(GetParam()) * 131 + 17);
  const std::string alphabet = "ab|\\:npq";
  for (int iter = 0; iter < 100; ++iter) {
    Schema schema;
    const size_t nfields = 1 + rng.Uniform(4);
    for (size_t f = 0; f < nfields; ++f) {
      std::string name;
      const size_t len = 1 + rng.Uniform(6);
      for (size_t c = 0; c < len; ++c) {
        name.push_back(alphabet[rng.Uniform(alphabet.size())]);
      }
      name += std::to_string(f);  // keep names unique
      ASSERT_TRUE(schema.AddField({name, DataType::kInt64}).ok());
    }
    net::Codec codec(schema);
    auto decoded = net::Codec::DecodeSchemaHeader(codec.EncodeSchemaHeader());
    ASSERT_TRUE(decoded.ok()) << codec.EncodeSchemaHeader();
    EXPECT_EQ(*decoded, schema);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchemaHeaderRoundTripTest,
                         ::testing::Range(1, 5));

}  // namespace
}  // namespace datacell
