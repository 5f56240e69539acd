// Failure injection: error paths, malformed input, flow control, and
// runaway-protection across the stack.

#include <gtest/gtest.h>

#include <thread>

#include "core/basket.h"
#include "core/receptor.h"
#include "core/scheduler.h"
#include "net/codec.h"
#include "net/shard.h"
#include "net/socket.h"
#include "sql/session.h"
#include "util/clock.h"

namespace datacell {
namespace {

Schema StreamSchema() {
  return Schema({{"tag", DataType::kTimestamp}, {"payload", DataType::kInt64}});
}

Table OneTuple(int64_t payload) {
  Table t(StreamSchema());
  EXPECT_TRUE(t.AppendRow({Value(int64_t{0}), Value(payload)}).ok());
  return t;
}

// ---------------------------------------------------------------------------
// Scheduler / factory errors
// ---------------------------------------------------------------------------

TEST(FactoryFailureTest, BodyErrorPropagatesThroughScheduler) {
  SimulatedClock clock;
  auto in = std::make_shared<core::Basket>("in", StreamSchema());
  auto f = std::make_shared<core::Factory>(
      "bad", [](core::FactoryContext&) -> Status {
        return Status::IOError("downstream device on fire");
      });
  f->AddInput(in);
  core::Scheduler sched(&clock);
  sched.Register(f);
  ASSERT_TRUE(in->Append(OneTuple(1), 0).ok());
  auto result = sched.RunUntilQuiescent();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  // The failed firing still counted; the input was not silently dropped
  // beyond what the body consumed.
  EXPECT_EQ(f->stats().firings, 0u);
}

TEST(FactoryFailureTest, ErrorDoesNotCorruptOtherFactories) {
  SimulatedClock clock;
  auto in_good = std::make_shared<core::Basket>("g", StreamSchema());
  auto in_bad = std::make_shared<core::Basket>("b", StreamSchema());
  auto out = std::make_shared<core::Basket>("o", in_good->schema(), false);
  auto good = std::make_shared<core::Factory>(
      "good", [out](core::FactoryContext& ctx) -> Status {
        Table t = ctx.input(0).TakeAll();
        ASSIGN_OR_RETURN(size_t n, out->AppendAligned(t, ctx.now()));
        (void)n;
        return Status::OK();
      });
  good->AddInput(in_good);
  good->AddOutput(out);
  auto bad = std::make_shared<core::Factory>(
      "bad", [](core::FactoryContext&) -> Status {
        return Status::Internal("boom");
      });
  bad->AddInput(in_bad);
  core::Scheduler sched(&clock);
  sched.Register(good);  // registered first: runs before the bad one
  sched.Register(bad);
  ASSERT_TRUE(in_good->Append(OneTuple(1), 0).ok());
  ASSERT_TRUE(in_bad->Append(OneTuple(2), 0).ok());
  EXPECT_FALSE(sched.RunUntilQuiescent().ok());
  // The good factory's work completed before the error surfaced.
  EXPECT_EQ(out->size(), 1u);
}

TEST(SchedulerFailureTest, MaxRoundsStopsRunawayLoop) {
  // A factory that always regenerates its own input would loop forever;
  // the max_rounds guard must bound it.
  SimulatedClock clock;
  auto b = std::make_shared<core::Basket>("b", StreamSchema());
  auto f = std::make_shared<core::Factory>(
      "perpetual", [b](core::FactoryContext& ctx) -> Status {
        Table t = b->TakeAll();
        ASSIGN_OR_RETURN(size_t n, b->AppendAligned(t, ctx.now()));
        (void)n;
        return Status::OK();
      });
  f->AddInput(b);
  f->AddOutput(b);
  core::Scheduler sched(&clock);
  sched.Register(f);
  ASSERT_TRUE(b->Append(OneTuple(1), 0).ok());
  auto rounds = sched.RunUntilQuiescent(/*max_rounds=*/25);
  ASSERT_TRUE(rounds.ok());
  EXPECT_EQ(*rounds, 25u);
}

TEST(EmitterFailureTest, SinkErrorPropagates) {
  SimulatedClock clock;
  auto b = std::make_shared<core::Basket>("b", StreamSchema());
  core::Emitter e("e", [](const Table&) -> Status {
    return Status::IOError("client hung up");
  });
  e.AddInput(b);
  ASSERT_TRUE(b->Append(OneTuple(1), 0).ok());
  auto result = e.Fire(0);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST(EmitterFailureTest, SinkFailureLosesNoTuplesAndCountsHonestly) {
  // Regression: the emitter used to count a batch as emitted before the
  // sink call, so a sink failure both inflated tuples_emitted() and lost
  // the batch (TakeAll had already drained the basket). Now a failed batch
  // is staged, retried before new input, and counted only on success.
  auto b = std::make_shared<core::Basket>("b", StreamSchema());
  int failures_left = 2;
  std::vector<int64_t> delivered;
  core::Emitter e("e_zeroloss", [&](const Table& batch) -> Status {
    if (failures_left > 0) {
      --failures_left;
      return Status::IOError("transient sink outage");
    }
    for (int64_t v : batch.column(1).ints()) delivered.push_back(v);
    return Status::OK();
  });
  e.AddInput(b);

  ASSERT_TRUE(b->Append(OneTuple(1), 0).ok());
  ASSERT_TRUE(b->Append(OneTuple(2), 0).ok());
  // First firing: sink fails. Nothing emitted, the batch is staged, the
  // count stays honest.
  ASSERT_FALSE(e.Fire(0).ok());
  EXPECT_EQ(e.tuples_emitted(), 0u);
  EXPECT_EQ(e.sink_errors(), 1u);
  EXPECT_EQ(e.tuples_pending(), 2u);
  EXPECT_EQ(b->size(), 0u);       // input was drained into the stage
  EXPECT_TRUE(e.CanFire(0));      // staged work keeps the transition hot

  // More input arrives while the staged batch waits.
  ASSERT_TRUE(b->Append(OneTuple(3), 0).ok());
  // Second firing: the staged retry fails again, before any new input is
  // taken — tuple 3 stays safely in the basket.
  ASSERT_FALSE(e.Fire(0).ok());
  EXPECT_EQ(e.sink_errors(), 2u);
  EXPECT_EQ(e.tuples_pending(), 2u);
  EXPECT_EQ(b->size(), 1u);

  // Third firing: the sink recovers. The staged batch goes out first, then
  // the new input — FIFO order, zero loss, counts match deliveries.
  ASSERT_TRUE(e.Fire(0).ok());
  EXPECT_EQ(e.tuples_emitted(), 3u);
  EXPECT_EQ(e.tuples_pending(), 0u);
  EXPECT_EQ(b->size(), 0u);
  ASSERT_EQ(delivered.size(), 3u);
  EXPECT_EQ(delivered[0], 1);
  EXPECT_EQ(delivered[1], 2);
  EXPECT_EQ(delivered[2], 3);
  EXPECT_FALSE(e.CanFire(0));
}

TEST(ReceptorFailureTest, SourceErrorPropagates) {
  auto r = std::make_shared<core::Receptor>(
      "r", []() -> Result<std::optional<Table>> {
        return Status::IOError("device detached");
      });
  r->AddOutput(std::make_shared<core::Basket>("b", StreamSchema()));
  EXPECT_FALSE(r->Fire(0).ok());
}

// ---------------------------------------------------------------------------
// Basket misuse and flow control
// ---------------------------------------------------------------------------

TEST(BasketFailureTest, ArityMismatchRejected) {
  core::Basket b("b", StreamSchema());
  Table wrong(Schema({{"x", DataType::kInt64}}));
  ASSERT_TRUE(wrong.AppendRow({Value(1)}).ok());
  EXPECT_EQ(b.Append(wrong, 0).status().code(), StatusCode::kTypeMismatch);
  EXPECT_EQ(b.AppendAligned(wrong, 0).status().code(),
            StatusCode::kTypeMismatch);
  EXPECT_EQ(b.size(), 0u);
}

TEST(BasketFailureTest, EraseOutOfRangeRejected) {
  core::Basket b("b", StreamSchema());
  ASSERT_TRUE(b.Append(OneTuple(1), 0).ok());
  EXPECT_FALSE(b.EraseRows({7}).ok());
  EXPECT_EQ(b.size(), 1u);  // untouched
}

TEST(BasketFailureTest, DisableMidStreamDebugging) {
  // §3.3 Basket Control: selectively disabling a basket blocks the stream
  // (drops are silent) and re-enabling resumes it.
  core::Basket b("b", StreamSchema());
  ASSERT_TRUE(b.Append(OneTuple(1), 0).ok());
  b.Disable();
  ASSERT_TRUE(b.Append(OneTuple(2), 0).ok());
  ASSERT_TRUE(b.Append(OneTuple(3), 0).ok());
  b.Enable();
  ASSERT_TRUE(b.Append(OneTuple(4), 0).ok());
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b.stats().dropped, 2u);
  Table t = b.Peek();
  EXPECT_EQ(t.GetRow(0)[1], Value(1));
  EXPECT_EQ(t.GetRow(1)[1], Value(4));
}

// ---------------------------------------------------------------------------
// Network-boundary validation
// ---------------------------------------------------------------------------

TEST(IngressFailureTest, MalformedTuplesSilentlyDropped) {
  SystemClock* clock = SystemClock::Get();
  auto basket = std::make_shared<core::Basket>("in", StreamSchema());
  auto receptor = std::make_shared<core::Receptor>("r");
  receptor->AddOutput(basket);
  net::ShardedIngress ingress({receptor}, net::Codec(StreamSchema()), clock);
  ASSERT_TRUE(ingress.Start().ok());

  auto conn = net::TcpStream::Connect("127.0.0.1", ingress.port());
  ASSERT_TRUE(conn.ok());
  net::Codec codec(StreamSchema());
  ASSERT_TRUE(conn->WriteAll(codec.EncodeSchemaHeader() + "\n").ok());
  ASSERT_TRUE(conn->WriteAll("1|10\n").ok());
  ASSERT_TRUE(conn->WriteAll("garbage line\n").ok());
  ASSERT_TRUE(conn->WriteAll("2|not_an_int\n").ok());
  ASSERT_TRUE(conn->WriteAll("3|30\n").ok());
  ASSERT_TRUE(conn->ShutdownWrite().ok());
  for (int i = 0; i < 2000 && !ingress.finished(); ++i) clock->SleepFor(1000);
  ingress.Stop();
  EXPECT_TRUE(ingress.finished());
  // Exactly the two well-formed tuples arrived; the rest acted as if they
  // had never been sent (the silent-filter semantics).
  EXPECT_EQ(ingress.tuples_received(), 2u);
  EXPECT_EQ(basket->size(), 2u);
}

TEST(IngressFailureTest, SchemaMismatchRejectsConnection) {
  SystemClock* clock = SystemClock::Get();
  auto basket = std::make_shared<core::Basket>("in", StreamSchema());
  auto receptor = std::make_shared<core::Receptor>("r");
  receptor->AddOutput(basket);
  net::ShardedIngress ingress({receptor}, net::Codec(StreamSchema()), clock);
  ASSERT_TRUE(ingress.Start().ok());

  auto conn = net::TcpStream::Connect("127.0.0.1", ingress.port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn->WriteAll("different:int|schema:string\n1|x\n").ok());
  ASSERT_TRUE(conn->ShutdownWrite().ok());
  // A rejected handshake is no sensor session, so finished() stays false
  // until Stop(); wait for the gateway to close the connection instead.
  for (int i = 0; i < 2000 && (ingress.connections_accepted() == 0 ||
                               ingress.active_connections() > 0);
       ++i) {
    clock->SleepFor(1000);
  }
  EXPECT_FALSE(ingress.finished());
  ingress.Stop();
  EXPECT_TRUE(ingress.finished());
  EXPECT_EQ(ingress.tuples_received(), 0u);
  EXPECT_EQ(basket->size(), 0u);
}

TEST(SocketFailureTest, ConnectToDeadPortFails) {
  // Bind-then-close yields a port that is very likely unbound.
  auto listener = net::TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok());
  const uint16_t port = listener->port();
  listener->Close();
  auto conn = net::TcpStream::Connect("127.0.0.1", port);
  EXPECT_FALSE(conn.ok());
  EXPECT_EQ(conn.status().code(), StatusCode::kIOError);
}

TEST(SocketFailureTest, BadAddressRejected) {
  auto conn = net::TcpStream::Connect("not-an-address", 80);
  ASSERT_FALSE(conn.ok());
  EXPECT_EQ(conn.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// SQL error paths
// ---------------------------------------------------------------------------

class SqlFailureTest : public ::testing::Test {
 protected:
  SqlFailureTest() : clock_(0), engine_(&clock_), session_(&engine_) {}
  SimulatedClock clock_;
  core::Engine engine_;
  sql::Session session_;
};

TEST_F(SqlFailureTest, DivisionByZeroYieldsNullNotCrash) {
  ASSERT_TRUE(session_.Execute("create table t (a int)").ok());
  ASSERT_TRUE(session_.Execute("insert into t values (1)").ok());
  auto r = session_.Execute("select a / 0 q from t");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->GetRow(0)[0].is_null());
}

TEST_F(SqlFailureTest, ScalarSubqueryWithTwoRowsRejected) {
  ASSERT_TRUE(session_.Execute("create table t (a int)").ok());
  ASSERT_TRUE(session_.Execute("insert into t values (1), (2)").ok());
  auto r = session_.Execute("select 1 + (select a from t) q");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SqlFailureTest, EmptyScalarSubqueryIsNull) {
  ASSERT_TRUE(session_.Execute("create table t (a int)").ok());
  auto r = session_.Execute("select (select sum(a) from t) q");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->GetRow(0)[0].is_null());
}

TEST_F(SqlFailureTest, InsertIntoMissingRelation) {
  auto r = session_.Execute("insert into nowhere values (1)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(SqlFailureTest, ContinuousQueryOverMissingBasket) {
  auto f = session_.RegisterContinuousQuery(
      "q", "select * from [select * from ghost] as g");
  EXPECT_FALSE(f.ok());
}

TEST_F(SqlFailureTest, ContinuousQueryBodyErrorStopsScheduler) {
  ASSERT_TRUE(session_.Execute("create basket s (a int)").ok());
  // The target table does not exist: the factory body fails at runtime.
  auto f = session_.RegisterContinuousQuery(
      "q", "insert into missing_target select * from [select * from s] as z");
  ASSERT_TRUE(f.ok());  // registration is lazy about the target
  ASSERT_TRUE(session_.Execute("insert into s values (1)").ok());
  auto r = engine_.scheduler().RunUntilQuiescent();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(SqlFailureTest, AggregateOfStringRejected) {
  ASSERT_TRUE(session_.Execute("create table t (s string)").ok());
  ASSERT_TRUE(session_.Execute("insert into t values ('x')").ok());
  EXPECT_FALSE(session_.Execute("select sum(s) from t").ok());
}

TEST_F(SqlFailureTest, GroupByStarRejected) {
  ASSERT_TRUE(session_.Execute("create table t (a int)").ok());
  EXPECT_FALSE(session_.Execute("select * from t group by a").ok());
}

TEST_F(SqlFailureTest, ThreeWayJoinUnsupported) {
  ASSERT_TRUE(session_.Execute("create table a (x int)").ok());
  ASSERT_TRUE(session_.Execute("create table b (y int)").ok());
  ASSERT_TRUE(session_.Execute("create table c (z int)").ok());
  auto r = session_.Execute("select * from a, b, c");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
}

TEST_F(SqlFailureTest, MergeWithoutEqualityRejected) {
  ASSERT_TRUE(session_.Execute("create basket x (a int)").ok());
  ASSERT_TRUE(session_.Execute("create basket y (b int)").ok());
  auto r = session_.Execute(
      "select * from [select * from x, y where x.a < y.b] as m");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBindError);
}

TEST_F(SqlFailureTest, DuplicateBasketRejected) {
  ASSERT_TRUE(session_.Execute("create basket s (a int)").ok());
  auto r = session_.Execute("create basket s (a int)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
  // And a table may not shadow a basket.
  EXPECT_EQ(session_.Execute("create table s (a int)").status().code(),
            StatusCode::kAlreadyExists);
}

}  // namespace
}  // namespace datacell
