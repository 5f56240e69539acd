// Plan IR, rewrite passes, cost model and the multi-query optimizer.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.h"
#include "sql/parser.h"
#include "sql/plan/builder.h"
#include "sql/plan/cost.h"
#include "sql/plan/optimizer.h"
#include "sql/plan/plan.h"
#include "sql/plan/rewrite.h"
#include "sql/session.h"
#include "util/clock.h"

namespace datacell::sql::plan {
namespace {

// ---------------------------------------------------------------------------
// Normalization & fingerprints
// ---------------------------------------------------------------------------

TEST(RewriteTest, MirroredComparisonsFingerprintEqual) {
  // 10 > x  and  x < 10
  ExprPtr a = Expr::Bin(BinaryOp::kGt, Expr::Lit(Value(10)), Expr::Col("x"));
  ExprPtr b = Expr::Bin(BinaryOp::kLt, Expr::Col("x"), Expr::Lit(Value(10)));
  EXPECT_EQ(NormalizePredicate(a)->ToString(),
            NormalizePredicate(b)->ToString());
  EXPECT_EQ(FingerprintHex(NormalizePredicate(a)->ToString()),
            FingerprintHex(NormalizePredicate(b)->ToString()));
}

TEST(RewriteTest, CommutativeOperandsOrdered) {
  ExprPtr ab = Expr::Bin(BinaryOp::kAnd, Expr::Col("a"), Expr::Col("b"));
  ExprPtr ba = Expr::Bin(BinaryOp::kAnd, Expr::Col("b"), Expr::Col("a"));
  EXPECT_EQ(NormalizePredicate(ab)->ToString(),
            NormalizePredicate(ba)->ToString());
}

TEST(RewriteTest, SplitAndRebuildConjuncts) {
  ExprPtr p = Expr::Bin(
      BinaryOp::kAnd,
      Expr::Bin(BinaryOp::kAnd, Expr::Col("a"), Expr::Col("b")),
      Expr::Col("c"));
  std::vector<ExprPtr> parts;
  SplitConjuncts(p, &parts);
  ASSERT_EQ(parts.size(), 3u);
  ExprPtr back = AndAll(parts);
  std::vector<ExprPtr> again;
  SplitConjuncts(back, &again);
  EXPECT_EQ(again.size(), 3u);
  // Null predicate: no conjuncts, AndAll of nothing is null.
  std::vector<ExprPtr> none;
  SplitConjuncts(nullptr, &none);
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(AndAll({}), nullptr);
}

TEST(RewriteTest, NowIsNotStreamStatic) {
  ExprPtr static_p =
      Expr::Bin(BinaryOp::kLt, Expr::Col("x"), Expr::Lit(Value(10)));
  ExprPtr timed = Expr::Bin(BinaryOp::kLt, Expr::Col("ts"),
                            Expr::Call("now", {}));
  EXPECT_TRUE(IsStreamStatic(*static_p));
  EXPECT_FALSE(IsStreamStatic(*timed));
}

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

TEST(CostModelTest, ShapeHeuristics) {
  ExprPtr eq = Expr::Bin(BinaryOp::kEq, Expr::Col("a"), Expr::Lit(Value(1)));
  ExprPtr ne = Expr::Bin(BinaryOp::kNe, Expr::Col("a"), Expr::Lit(Value(1)));
  ExprPtr lt = Expr::Bin(BinaryOp::kLt, Expr::Col("a"), Expr::Lit(Value(1)));
  EXPECT_LT(CostModel::HeuristicSelectivity(*eq),
            CostModel::HeuristicSelectivity(*lt));
  EXPECT_LT(CostModel::HeuristicSelectivity(*lt),
            CostModel::HeuristicSelectivity(*ne));
}

TEST(CostModelTest, ObservationsOverrideAndDriftSelfClears) {
  CostModel cost;
  ExprPtr eq = Expr::Bin(BinaryOp::kEq, Expr::Col("a"), Expr::Lit(Value(1)));
  const std::string fp = "deadbeefdeadbeef";
  const double heuristic = cost.EstimateSelectivity(*eq, fp);
  EXPECT_DOUBLE_EQ(heuristic, 0.10);

  // Below the sample floor the heuristic stands.
  cost.RecordObserved(fp, 100, 90);
  EXPECT_DOUBLE_EQ(cost.EstimateSelectivity(*eq, fp), 0.10);
  EXPECT_FALSE(cost.Drifted(heuristic, fp));

  // Enough samples, 90% pass rate: drifted vs the 0.10 the net was built
  // with; adopting the observed value clears the trigger.
  cost.RecordObserved(fp, 1000, 900);
  EXPECT_DOUBLE_EQ(cost.EstimateSelectivity(*eq, fp), 0.9);
  EXPECT_TRUE(cost.Drifted(heuristic, fp));
  EXPECT_FALSE(cost.Drifted(cost.EstimateSelectivity(*eq, fp), fp));
}

// ---------------------------------------------------------------------------
// Plan compilation
// ---------------------------------------------------------------------------

class PlanFixture : public ::testing::Test {
 protected:
  PlanFixture() : clock_(0), engine_(&clock_), session_(&engine_) {}

  void Exec(const std::string& sql) {
    auto r = session_.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  }

  Result<CompiledQuery> Compile(const std::string& sql) {
    auto stmt = ParseOne(sql);
    EXPECT_TRUE(stmt.ok());
    return CompileContinuous(&engine_, "q",
                             std::shared_ptr<Statement>(std::move(*stmt)),
                             cost_);
  }

  // Sink that accumulates one rendered line per result row.
  static core::Emitter::Sink Collect(std::vector<std::string>* out) {
    return [out](const Table& t) -> Status {
      for (size_t i = 0; i < t.num_rows(); ++i) {
        std::string line;
        const Row row = t.GetRow(i);
        for (size_t c = 0; c < row.size(); ++c) {
          if (c > 0) line += "|";
          line += row[c].ToString();
        }
        out->push_back(std::move(line));
      }
      return Status::OK();
    };
  }

  size_t CountTransitions(const std::string& prefix) {
    size_t n = 0;
    for (const auto& t : engine_.scheduler().TransitionStatsSnapshot()) {
      if (t.name.rfind(prefix, 0) == 0) ++n;
    }
    return n;
  }

  SimulatedClock clock_;
  core::Engine engine_;
  Session session_;
  CostModel cost_;
};

TEST_F(PlanFixture, CompileClassifiesConjuncts) {
  Exec("create basket s (a int, b int)");
  auto cq = Compile(
      "select * from [select * from s where a > 10 and b = 1] as w "
      "where w.a < 100");
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  EXPECT_EQ(cq->source_basket, "s");
  EXPECT_TRUE(cq->window_trivial);
  EXPECT_EQ(cq->min_tuples, 1u);
  // Inner a>10, b=1 and outer a<100 (trivial window) are all shareable.
  EXPECT_EQ(cq->shared.size(), 3u);
  for (const Conjunct& c : cq->shared) EXPECT_TRUE(c.shareable);
}

TEST_F(PlanFixture, NonTrivialWindowBlocksOuterPushdown) {
  Exec("create basket s (a int, b int)");
  auto cq = Compile(
      "select * from [select top 5 from s where a > 10 order by b] as w "
      "where w.a < 100");
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  EXPECT_FALSE(cq->window_trivial);
  EXPECT_EQ(cq->min_tuples, 5u);
  // Only the inner conjunct crosses; the outer filter stays post-window.
  EXPECT_EQ(cq->shared.size(), 1u);
}

TEST_F(PlanFixture, NowConjunctIsNotShareable) {
  Exec("create basket s (a int)");
  auto cq = Compile(
      "select * from [select * from s where a > 10 and a < now()] as w");
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  EXPECT_EQ(cq->shared.size(), 1u);  // only a > 10
}

TEST_F(PlanFixture, UnsupportedShapesFallThrough) {
  Exec("create basket a (x int)");
  Exec("create basket b (x int)");
  // Two-basket merge: not in the plannable subset.
  EXPECT_FALSE(Compile("select * from [select * from a], [select * from b] "
                       "where a.x = b.x")
                   .ok());
  // One-time query: no basket expression.
  Exec("create table t (x int)");
  EXPECT_FALSE(Compile("select * from t").ok());
}

TEST_F(PlanFixture, FilterOrderedBySelectivity) {
  Exec("create basket s (a int, b int)");
  auto cq = Compile(
      "select * from [select * from s where a <> 1 and b = 2 and a > 3]");
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  // The plan's filter node orders eq (0.10) < range (0.33) < ne (0.90).
  std::string text;
  cq->plan->Render(0, &text);
  const size_t eq_pos = text.find("b = 2");
  const size_t range_pos = text.find("a > 3");
  const size_t ne_pos = text.find("a <> 1");
  ASSERT_NE(eq_pos, std::string::npos);
  ASSERT_NE(range_pos, std::string::npos);
  ASSERT_NE(ne_pos, std::string::npos);
  EXPECT_LT(eq_pos, range_pos);
  EXPECT_LT(range_pos, ne_pos);
}

// ---------------------------------------------------------------------------
// Multi-query optimizer
// ---------------------------------------------------------------------------

TEST_F(PlanFixture, DefaultModeKeepsLegacyWiring) {
  Exec("create basket s (a int)");
  auto f1 = session_.RegisterContinuousSelect(
      "q1", "select * from [select * from s where a > 1]", nullptr);
  ASSERT_TRUE(f1.ok());
  auto f2 = session_.RegisterContinuousSelect(
      "q2", "select * from [select * from s where a > 2]", nullptr);
  ASSERT_TRUE(f2.ok());
  // One transition per query, no shared stages.
  EXPECT_EQ(engine_.scheduler().num_transitions(), 2u);
  EXPECT_EQ(CountTransitions("mqo."), 0u);
  EXPECT_TRUE(session_.UnregisterContinuousQuery("q1").ok());
  EXPECT_EQ(engine_.scheduler().num_transitions(), 1u);
}

TEST_F(PlanFixture, IdenticalPrefixFactorsIntoOneSharedChain) {
  Exec("create basket s (a int, b int)");
  session_.set_sharing_enabled(true);
  std::vector<std::string> r1, r2, r3;
  ASSERT_TRUE(session_
                  .RegisterContinuousSelect(
                      "q1", "select * from [select * from s where a > 10]",
                      Collect(&r1))
                  .ok());
  ASSERT_TRUE(session_
                  .RegisterContinuousSelect(
                      "q2", "select * from [select * from s where 10 < a]",
                      Collect(&r2))
                  .ok());
  ASSERT_TRUE(session_
                  .RegisterContinuousSelect(
                      "q3", "select * from [select * from s where a > 10]",
                      Collect(&r3))
                  .ok());
  // All three share the normalized a > 10: exactly ONE shared stage factory
  // plus the three per-query leaves.
  EXPECT_EQ(CountTransitions("mqo."), 1u);
  EXPECT_EQ(engine_.scheduler().num_transitions(), 4u);

  Exec("insert into s values (5, 1), (11, 2), (20, 3)");
  ASSERT_TRUE(engine_.scheduler().RunUntilQuiescent().ok());
  EXPECT_EQ(r1.size(), 2u);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(r1, r3);
}

TEST_F(PlanFixture, SharedResultsMatchLegacySingleQuery) {
  const std::vector<std::string> queries = {
      "select * from [select * from s where a > 10 and b = 1]",
      "select * from [select * from s where a > 10 and b = 2]",
      "select * from [select * from s where a > 10] as w where w.b <> 3",
  };
  const std::string feed =
      "insert into s values (11, 1), (5, 1), (12, 2), (13, 3), (40, 1), "
      "(41, 2), (9, 2), (50, 3)";

  // Ground truth: each query alone on a fresh engine, legacy wiring.
  std::vector<std::vector<std::string>> expected(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    SimulatedClock clock(0);
    core::Engine engine(&clock);
    Session session(&engine);
    auto r = session.Execute("create basket s (a int, b int)");
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(session
                    .RegisterContinuousSelect("q", queries[i],
                                              Collect(&expected[i]))
                    .ok());
    ASSERT_TRUE(session.Execute(feed).ok());
    ASSERT_TRUE(engine.scheduler().RunUntilQuiescent().ok());
  }

  // Shared engine: all three queries on one basket.
  Exec("create basket s (a int, b int)");
  session_.set_sharing_enabled(true);
  std::vector<std::vector<std::string>> got(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(session_
                    .RegisterContinuousSelect("q" + std::to_string(i),
                                              queries[i], Collect(&got[i]))
                    .ok());
  }
  Exec(feed);
  ASSERT_TRUE(engine_.scheduler().RunUntilQuiescent().ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "query " << i;
  }
}

TEST_F(PlanFixture, DropLeavesSiblingResultsByteIdentical) {
  const std::vector<std::string> queries = {
      "select * from [select * from s where a > 10 and b = 1]",
      "select * from [select * from s where a > 10 and b = 2]",
      "select * from [select * from s where a > 10 and b = 3]",
  };
  const std::string batch1 =
      "insert into s values (11, 1), (12, 2), (13, 3), (5, 1), (40, 1)";
  const std::string batch2 =
      "insert into s values (21, 1), (22, 2), (23, 3), (6, 2), (50, 3)";

  auto run = [&](bool drop_q1_midway,
                 std::vector<std::vector<std::string>>* out) {
    SimulatedClock clock(0);
    core::Engine engine(&clock);
    Session session(&engine);
    ASSERT_TRUE(session.Execute("create basket s (a int, b int)").ok());
    session.set_sharing_enabled(true);
    out->assign(queries.size(), {});
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(session
                      .RegisterContinuousSelect("q" + std::to_string(i),
                                                queries[i],
                                                Collect(&(*out)[i]))
                      .ok());
    }
    ASSERT_TRUE(session.Execute(batch1).ok());
    ASSERT_TRUE(engine.scheduler().RunUntilQuiescent().ok());
    ASSERT_TRUE(session.Execute(batch2).ok());
    if (drop_q1_midway) {
      // batch2 is still resident in the source basket: the rebuild's
      // drain/teardown must not lose or reorder it for q0 / q2.
      ASSERT_TRUE(session.UnregisterContinuousQuery("q1").ok());
      EXPECT_FALSE(engine.HasBasket("mqo.q.q1"));
    }
    ASSERT_TRUE(engine.scheduler().RunUntilQuiescent().ok());
  };

  std::vector<std::vector<std::string>> keep_all, with_drop;
  run(false, &keep_all);
  run(true, &with_drop);
  EXPECT_EQ(with_drop[0], keep_all[0]);
  EXPECT_EQ(with_drop[2], keep_all[2]);
  EXPECT_FALSE(keep_all[0].empty());
}

// A query the optimizer cannot compile (here a stream x table join, two
// FROM sources) runs direct. On a basket with a shared subnet it is fed
// from the subnet's root through its own replica, whichever registered
// first, instead of competing with the subnet for the tuples.
TEST_F(PlanFixture, DirectQueryOnSharedBasketSeesEveryTuple) {
  const std::string filter = "select * from [select * from s where a > 10]";
  const std::string join =
      "select x.a, r.w from [select * from s] as x, ref as r where x.b = r.b";
  const std::string setup =
      "create basket s (a int, b int); create table ref (b int, w int); "
      "insert into ref values (1, 100), (2, 200), (3, 300);";
  const std::vector<std::string> feeds = {
      "insert into s values (11, 1), (5, 2), (12, 3), (40, 2)",
      "insert into s values (7, 3), (50, 1), (13, 2)"};

  // Ground truth: each query alone on a fresh engine, legacy wiring.
  auto alone = [&](const std::string& sql) {
    std::vector<std::string> out;
    SimulatedClock clock(0);
    core::Engine engine(&clock);
    Session session(&engine);
    EXPECT_TRUE(session.Execute(setup).ok());
    EXPECT_TRUE(session.RegisterContinuousSelect("q", sql, Collect(&out)).ok());
    for (const std::string& feed : feeds) {
      EXPECT_TRUE(session.Execute(feed).ok());
      EXPECT_TRUE(engine.scheduler().RunUntilQuiescent().ok());
    }
    return out;
  };
  const std::vector<std::string> want_filter = alone(filter);
  const std::vector<std::string> want_join = alone(join);
  ASSERT_EQ(want_filter.size(), 5u);
  ASSERT_EQ(want_join.size(), 7u);

  for (bool join_first : {false, true}) {
    SimulatedClock clock(0);
    core::Engine engine(&clock);
    Session session(&engine);
    ASSERT_TRUE(session.Execute(setup).ok());
    session.set_sharing_enabled(true);
    std::vector<std::string> got_filter, got_join;
    const auto add_filter = [&] {
      ASSERT_TRUE(session
                      .RegisterContinuousSelect("filter", filter,
                                                Collect(&got_filter))
                      .ok());
    };
    const auto add_join = [&] {
      ASSERT_TRUE(
          session.RegisterContinuousSelect("join", join, Collect(&got_join))
              .ok());
    };
    if (join_first) {
      add_join();
      add_filter();
    } else {
      add_filter();
      add_join();
    }
    EXPECT_TRUE(engine.HasBasket("mqo.r.s.join")) << join_first;
    for (const std::string& feed : feeds) {
      ASSERT_TRUE(session.Execute(feed).ok());
      ASSERT_TRUE(engine.scheduler().RunUntilQuiescent().ok());
    }
    EXPECT_EQ(got_filter, want_filter) << "join_first " << join_first;
    EXPECT_EQ(got_join, want_join) << "join_first " << join_first;

    // Dropping the join drops its replica; the filter keeps its stream.
    ASSERT_TRUE(session.UnregisterContinuousQuery("join").ok());
    EXPECT_FALSE(engine.HasBasket("mqo.r.s.join"));
    ASSERT_TRUE(session.Execute("insert into s values (99, 1)").ok());
    ASSERT_TRUE(engine.scheduler().RunUntilQuiescent().ok());
    ASSERT_EQ(got_filter.size(), want_filter.size() + 1);
    EXPECT_EQ(got_join, want_join);
  }
}

TEST_F(PlanFixture, DuplicateNameAndMissingNameAreCleanErrors) {
  Exec("create basket s (a int)");
  ASSERT_TRUE(session_
                  .RegisterContinuousSelect(
                      "q", "select * from [select * from s]", nullptr)
                  .ok());
  auto dup = session_.RegisterContinuousSelect(
      "q", "select * from [select * from s]", nullptr);
  EXPECT_FALSE(dup.ok());
  EXPECT_FALSE(session_.UnregisterContinuousQuery("nope").ok());
  EXPECT_TRUE(session_.UnregisterContinuousQuery("q").ok());
}

TEST_F(PlanFixture, ReoptimizeRebuildsOnDriftThenClears) {
  Exec("create basket s (a int)");
  session_.set_sharing_enabled(true);
  std::vector<std::string> r1, r2;
  // b = 1 heuristically estimates 0.10, but the stream passes ~100%.
  ASSERT_TRUE(session_
                  .RegisterContinuousSelect(
                      "q1", "select * from [select * from s where a = 1]",
                      Collect(&r1))
                  .ok());
  ASSERT_TRUE(session_
                  .RegisterContinuousSelect(
                      "q2", "select * from [select * from s where a = 1]",
                      Collect(&r2))
                  .ok());
  for (int i = 0; i < 30; ++i) {
    Exec("insert into s values (1), (1), (1), (1), (1), (1), (1), (1), "
         "(1), (1)");
    ASSERT_TRUE(engine_.scheduler().RunUntilQuiescent().ok());
  }
  auto first = session_.Reoptimize();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 1u);  // observed ~1.0 vs built 0.10: rebuild
  auto second = session_.Reoptimize();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, 0u);  // estimates adopted: trigger self-clears
  EXPECT_EQ(r1.size(), 300u);
  EXPECT_EQ(r1, r2);
}

TEST_F(PlanFixture, ExplainRendersPlanAndSharing) {
  Exec("create basket s (a int, b int)");
  session_.set_sharing_enabled(true);
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(session_
                    .RegisterContinuousSelect(
                        "q" + std::to_string(i),
                        "select * from [select * from s where a > 10 and b = " +
                            std::to_string(i) + "]",
                        nullptr)
                    .ok());
  }
  auto r = session_.Execute(
      "explain select * from [select * from s where a > 10 and b = 1]");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_columns(), 1u);
  std::string text;
  for (size_t i = 0; i < r->num_rows(); ++i) {
    text += r->GetRow(i)[0].ToString();
    text += "\n";
  }
  EXPECT_NE(text.find("scan s (basket"), std::string::npos) << text;
  EXPECT_NE(text.find("shared_by=3"), std::string::npos) << text;
  EXPECT_NE(text.find("sharing: on"), std::string::npos) << text;
  EXPECT_NE(text.find("standing=3"), std::string::npos) << text;

  // EXPLAIN of a one-time query renders the structural plan.
  Exec("create table t (x int)");
  auto once = session_.Execute("explain select x from t where x > 1");
  ASSERT_TRUE(once.ok());
  std::string once_text;
  for (size_t i = 0; i < once->num_rows(); ++i) {
    once_text += once->GetRow(i)[0].ToString();
    once_text += "\n";
  }
  EXPECT_NE(once_text.find("one-time plan"), std::string::npos) << once_text;
  EXPECT_NE(once_text.find("scan t (table"), std::string::npos) << once_text;
}

TEST_F(PlanFixture, PlansVirtualTableListsStages) {
  Exec("create basket s (a int)");
  session_.set_sharing_enabled(true);
  ASSERT_TRUE(session_
                  .RegisterContinuousSelect(
                      "q1", "select * from [select * from s where a > 1]",
                      nullptr)
                  .ok());
  auto r = session_.Execute("select * from dc_plans");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(r->num_rows(), 2u);  // stage row + leaf row
}

}  // namespace
}  // namespace datacell::sql::plan
