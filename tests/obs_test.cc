// Observability subsystem (DESIGN.md §10): histogram math, registry
// concurrency, trace-ring wraparound, scheduler instrumentation, the
// metronome catch-up cap, and the dc_* virtual tables through SQL.
//
// The registry and trace log are process-global; every test uses names
// under a test-unique prefix (and Reset()s the trace ring) so tests stay
// independent no matter what order gtest runs them in.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/basket.h"
#include "core/engine.h"
#include "core/factory.h"
#include "core/metronome.h"
#include "core/receptor.h"
#include "core/scheduler.h"
#include "net/shard.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/tables.h"
#include "obs/trace.h"
#include "sql/session.h"
#include "util/clock.h"

namespace datacell {
namespace {

// ---------------------------------------------------------------------------
// Histogram: bucket boundaries and percentile math
// ---------------------------------------------------------------------------

TEST(HistogramTest, BucketBoundaries) {
  using obs::Histogram;
  // Bucket 0 holds values < 1; bucket i holds [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11u);
  // Every value lands inside [lower, upper) of its bucket.
  for (Micros v : {int64_t{0}, int64_t{1}, int64_t{7}, int64_t{1'000'000},
                   int64_t{1} << 40}) {
    const size_t i = Histogram::BucketIndex(v);
    EXPECT_GE(static_cast<uint64_t>(v), Histogram::BucketLowerBound(i));
    if (i + 1 < Histogram::kBuckets) {
      EXPECT_LT(static_cast<uint64_t>(v), Histogram::BucketUpperBound(i));
    }
  }
  // The top bucket absorbs everything beyond the range.
  EXPECT_EQ(Histogram::BucketIndex(int64_t{1} << 62), Histogram::kBuckets - 1);
}

TEST(HistogramTest, PercentilesClampToObservedMax) {
  obs::Histogram h;
  // 100 identical samples: interpolation inside the [8,16) bucket would
  // report 12, but the clamp pins every percentile to the real max.
  for (int i = 0; i < 100; ++i) h.Record(10);
  const obs::HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.sum, 1000u);
  EXPECT_EQ(s.max, 10);
  EXPECT_DOUBLE_EQ(s.p50(), 10.0);
  EXPECT_DOUBLE_EQ(s.p99(), 10.0);
  EXPECT_DOUBLE_EQ(s.Mean(), 10.0);
}

TEST(HistogramTest, PercentilesOrderAcrossBuckets) {
  obs::Histogram h;
  // 90 fast samples and 10 slow ones: p50 stays in the fast bucket, p95+
  // land in the slow one.
  for (int i = 0; i < 90; ++i) h.Record(3);
  for (int i = 0; i < 10; ++i) h.Record(1000);
  const obs::HistogramSnapshot s = h.Snapshot();
  EXPECT_LE(s.p50(), 4.0);
  EXPECT_GE(s.p95(), 512.0);
  EXPECT_LE(s.p99(), 1000.0);  // clamped to max
  EXPECT_EQ(s.max, 1000);
  EXPECT_LE(s.p50(), s.p95());
  EXPECT_LE(s.p95(), s.p99());
}

TEST(HistogramTest, EmptyIsAllZero) {
  obs::Histogram h;
  const obs::HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.p50(), 0.0);
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
}

// ---------------------------------------------------------------------------
// Registry: stable pointers, concurrency (the TSan target)
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, GetOrCreateReturnsStablePointers) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter* a = reg.GetCounter("obs_test.stable.c");
  obs::Counter* b = reg.GetCounter("obs_test.stable.c");
  EXPECT_EQ(a, b);
  // The same name may exist in every kind namespace independently.
  EXPECT_NE(static_cast<void*>(reg.GetGauge("obs_test.stable.c")),
            static_cast<void*>(a));
  a->Increment(3);
  EXPECT_EQ(b->value(), 3u);
}

TEST(MetricsRegistryTest, ConcurrentGetAndRecord) {
  // Hammer get-or-create and the hot-path atomics from several threads;
  // under TSan this is the proof the registry needs no external locking.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  constexpr int kThreads = 4;
  constexpr int kIters = 2'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::string key = "obs_test.conc." + std::to_string(i % 8);
        reg.GetCounter(key)->Increment();
        reg.GetHistogram("obs_test.conc.hist")->Record(i % 100);
        if ((i & 63) == 0) (void)reg.Snapshot();
        (void)t;
      }
    });
  }
  for (auto& th : threads) th.join();

  uint64_t total = 0;
  for (int i = 0; i < 8; ++i) {
    total += reg.GetCounter("obs_test.conc." + std::to_string(i))->value();
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(reg.GetHistogram("obs_test.conc.hist")->Snapshot().count,
            static_cast<uint64_t>(kThreads) * kIters);
}

TEST(MetricsRegistryTest, SnapshotSortedAndTyped) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("obs_test.snap.a")->Increment(5);
  reg.GetGauge("obs_test.snap.b")->Set(-7);
  reg.GetHistogram("obs_test.snap.c")->Record(16);
  const std::vector<obs::MetricSnapshot> all = reg.Snapshot();
  ASSERT_GE(all.size(), 3u);
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_LE(all[i - 1].name, all[i].name);  // sorted by name
  }
  bool saw_counter = false, saw_gauge = false, saw_hist = false;
  for (const obs::MetricSnapshot& m : all) {
    if (m.name == "obs_test.snap.a") {
      EXPECT_EQ(m.kind, obs::MetricKind::kCounter);
      EXPECT_DOUBLE_EQ(m.value, 5.0);
      saw_counter = true;
    } else if (m.name == "obs_test.snap.b") {
      EXPECT_EQ(m.kind, obs::MetricKind::kGauge);
      EXPECT_DOUBLE_EQ(m.value, -7.0);
      saw_gauge = true;
    } else if (m.name == "obs_test.snap.c") {
      EXPECT_EQ(m.kind, obs::MetricKind::kHistogram);
      EXPECT_EQ(m.count, 1u);
      EXPECT_EQ(m.max, 16);
      saw_hist = true;
    }
  }
  EXPECT_TRUE(saw_counter && saw_gauge && saw_hist);
}

// ---------------------------------------------------------------------------
// Trace ring
// ---------------------------------------------------------------------------

TEST(TraceLogTest, RingWrapsKeepingNewestOldestFirst) {
  obs::TraceLog& log = obs::TraceLog::Global();
  log.Reset(/*capacity=*/8);
  log.set_enabled(true);
  for (int i = 0; i < 20; ++i) {
    obs::TraceEvent e;
    e.transition = "t" + std::to_string(i);
    e.rows_in = static_cast<uint64_t>(i);
    log.Record(std::move(e));
  }
  log.set_enabled(false);
  EXPECT_EQ(log.recorded(), 20u);
  const std::vector<obs::TraceEvent> events = log.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  // The newest 8 events survive, oldest-first: seq 12..19.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 12 + i);
    EXPECT_EQ(events[i].rows_in, 12 + i);
  }
  log.Reset();
  EXPECT_EQ(log.recorded(), 0u);
  EXPECT_TRUE(log.Snapshot().empty());
}

TEST(TraceLogTest, DisabledRecordsNothing) {
  obs::TraceLog& log = obs::TraceLog::Global();
  log.Reset(8);
  log.set_enabled(false);
  log.Record(obs::TraceEvent{});
  EXPECT_EQ(log.recorded(), 0u);
}

// ---------------------------------------------------------------------------
// Scheduler instrumentation: firing stats and trace events
// ---------------------------------------------------------------------------

Schema IntSchema() { return Schema({{"a", DataType::kInt64}}); }

Table OneInt(int64_t v) {
  Table t(IntSchema());
  EXPECT_TRUE(t.AppendRow({Value(v)}).ok());
  return t;
}

TEST(SchedulerObsTest, FiringStatsAndTraceEvents) {
  obs::TraceLog& log = obs::TraceLog::Global();
  log.Reset(64);
  log.set_enabled(true);

  SimulatedClock clock;
  auto in = std::make_shared<core::Basket>("obs_in", IntSchema());
  auto out = std::make_shared<core::Basket>("obs_out", in->schema(), false);
  auto f = std::make_shared<core::Factory>(
      "obs_copy", [in, out](core::FactoryContext& ctx) -> Status {
        Table t = in->TakeAll();
        if (t.num_rows() == 0) return Status::OK();
        return out->AppendAligned(t, ctx.now()).status();
      });
  f->AddInput(in);
  f->AddOutput(out);
  core::Scheduler sched(&clock);
  sched.Register(f);

  ASSERT_TRUE(in->Append(OneInt(1), 0).ok());
  ASSERT_TRUE(in->Append(OneInt(2), 0).ok());
  ASSERT_TRUE(sched.RunUntilQuiescent().ok());
  log.set_enabled(false);

  // Per-transition stats picked up the firing.
  bool found = false;
  for (const core::Scheduler::TransitionStats& ts :
       sched.TransitionStatsSnapshot()) {
    if (ts.name != "obs_copy") continue;
    found = true;
    EXPECT_GE(ts.firings, 1u);
    EXPECT_EQ(ts.latency.count, ts.firings);
  }
  EXPECT_TRUE(found);

  // The trace saw the same firing with its token flow.
  uint64_t rows_in = 0, rows_out = 0;
  bool traced = false;
  for (const obs::TraceEvent& e : log.Snapshot()) {
    if (e.transition != "obs_copy") continue;
    traced = true;
    EXPECT_EQ(e.trigger, "obs_in");
    rows_in += e.rows_in;
    rows_out += e.rows_out;
  }
  EXPECT_TRUE(traced);
  EXPECT_EQ(rows_in, 2u);
  EXPECT_EQ(rows_out, 2u);
  log.Reset();
}

// ---------------------------------------------------------------------------
// Metronome: bounded catch-up after a stall
// ---------------------------------------------------------------------------

TEST(MetronomeObsTest, StallCatchUpIsBoundedButComplete) {
  auto out = std::make_shared<core::Basket>(
      "obs_hb", Schema({{"epoch", DataType::kTimestamp}}));
  core::Metronome m("obs_cap", out, /*start=*/0, /*interval=*/100, nullptr,
                    /*max_ticks_per_fire=*/4);

  // Simulate a 1 ms stall: 11 ticks (0..1000) are owed at once.
  const Micros now = 1000;
  ASSERT_TRUE(m.CanFire(now));

  // First installment: exactly the cap, cursor left in the past.
  ASSERT_TRUE(m.Fire(now).ok());
  EXPECT_EQ(out->size(), 4u);
  EXPECT_EQ(m.capped_firings(), 1u);
  EXPECT_TRUE(m.CanFire(now));

  // Second installment.
  ASSERT_TRUE(m.Fire(now).ok());
  EXPECT_EQ(out->size(), 8u);
  EXPECT_EQ(m.capped_firings(), 2u);
  EXPECT_TRUE(m.CanFire(now));

  // Final installment drains the backlog; no epoch was skipped.
  ASSERT_TRUE(m.Fire(now).ok());
  EXPECT_EQ(out->size(), 11u);
  EXPECT_EQ(m.capped_firings(), 2u);
  EXPECT_FALSE(m.CanFire(now));
  EXPECT_EQ(m.next_tick(), 1100);

  // Every owed epoch arrived, in order, stamped with its own tick time.
  const Table t = out->Peek();
  for (size_t i = 0; i < t.num_rows(); ++i) {
    EXPECT_EQ(t.column(1).ints()[i], static_cast<int64_t>(i) * 100);
  }
}

// ---------------------------------------------------------------------------
// SQL surface: dc_* virtual tables and the runtime toggles
// ---------------------------------------------------------------------------

class ObsSqlTest : public ::testing::Test {
 protected:
  ObsSqlTest() : clock_(0), engine_(&clock_), session_(&engine_) {}
  SimulatedClock clock_;
  core::Engine engine_;
  sql::Session session_;
};

TEST_F(ObsSqlTest, DcMetricsRoundTrip) {
  obs::MetricsRegistry::Global()
      .GetCounter("obs_test.sql.roundtrip")
      ->Increment(7);
  auto r = session_.Execute(
      "select kind, value from dc_metrics where name = "
      "'obs_test.sql.roundtrip'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 1u);
  EXPECT_EQ(r->GetRow(0)[0], Value("counter"));
  EXPECT_EQ(r->GetRow(0)[1], Value(7.0));
}

TEST_F(ObsSqlTest, DcBasketsReflectsLiveState) {
  ASSERT_TRUE(session_.Execute("create basket s (a int)").ok());
  ASSERT_TRUE(session_.Execute("insert into s values (1), (2), (3)").ok());
  auto r = session_.Execute(
      "select rows, appended from dc_baskets where name = 's'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 1u);
  EXPECT_EQ(r->GetRow(0)[0], Value(int64_t{3}));
  EXPECT_EQ(r->GetRow(0)[1], Value(int64_t{3}));
}

TEST_F(ObsSqlTest, UserRelationShadowsVirtualTable) {
  // A user table named dc_metrics wins; the virtual table is a fallback.
  ASSERT_TRUE(session_.Execute("create table dc_metrics (a int)").ok());
  ASSERT_TRUE(session_.Execute("insert into dc_metrics values (42)").ok());
  auto r = session_.Execute("select * from dc_metrics");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->num_rows(), 1u);
  ASSERT_EQ(r->num_columns(), 1u);
  EXPECT_EQ(r->GetRow(0)[0], Value(int64_t{42}));
}

TEST_F(ObsSqlTest, SetTogglesTraceAndMetrics) {
  obs::TraceLog& log = obs::TraceLog::Global();
  log.set_enabled(false);
  ASSERT_TRUE(session_.Execute("set dc_trace = 1").ok());
  EXPECT_TRUE(log.enabled());
  ASSERT_TRUE(session_.Execute("set dc_trace = 0").ok());
  EXPECT_FALSE(log.enabled());

  ASSERT_TRUE(obs::MetricsRegistry::enabled());
  ASSERT_TRUE(session_.Execute("set dc_metrics = 0").ok());
  EXPECT_FALSE(obs::MetricsRegistry::enabled());
  ASSERT_TRUE(session_.Execute("set dc_metrics = 1").ok());
  EXPECT_TRUE(obs::MetricsRegistry::enabled());
}

TEST_F(ObsSqlTest, DcTraceAndDcTransitionsSeeContinuousQueries) {
  obs::TraceLog::Global().Reset(64);
  ASSERT_TRUE(session_.Execute("set dc_trace = 1").ok());
  ASSERT_TRUE(session_.Execute("create basket s (a int)").ok());
  ASSERT_TRUE(session_.Execute("create table tgt (a int)").ok());
  ASSERT_TRUE(session_
                  .RegisterContinuousQuery(
                      "obs_cq",
                      "insert into tgt select * from [select * from s] as z")
                  .ok());
  ASSERT_TRUE(session_.Execute("insert into s values (9)").ok());
  ASSERT_TRUE(engine_.scheduler().RunUntilQuiescent().ok());
  ASSERT_TRUE(session_.Execute("set dc_trace = 0").ok());

  auto fired = session_.Execute(
      "select firings from dc_transitions where name = 'obs_cq'");
  ASSERT_TRUE(fired.ok()) << fired.status().ToString();
  ASSERT_EQ(fired->num_rows(), 1u);
  EXPECT_EQ(fired->GetRow(0)[0], Value(int64_t{1}));

  auto trace = session_.Execute(
      "select rows_in from dc_trace where transition = 'obs_cq'");
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  ASSERT_EQ(trace->num_rows(), 1u);
  EXPECT_EQ(trace->GetRow(0)[0], Value(int64_t{1}));
  obs::TraceLog::Global().Reset();
}

// ---------------------------------------------------------------------------
// Gateway STATS command
// ---------------------------------------------------------------------------

TEST(GatewayStatsTest, StatsCommandAnswersOneLineAndCloses) {
  SystemClock* clock = SystemClock::Get();
  auto basket = std::make_shared<core::Basket>("stats_in", IntSchema());
  auto receptor = std::make_shared<core::Receptor>("stats_r");
  receptor->AddOutput(basket);
  net::ShardedIngress ingress({receptor}, net::Codec(IntSchema()), clock);
  ASSERT_TRUE(ingress.Start().ok());

  auto conn = net::TcpStream::Connect("127.0.0.1", ingress.port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn->WriteAll("STATS\n").ok());
  auto line = conn->ReadLine();
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  EXPECT_EQ(line->rfind("STATS ", 0), 0u) << *line;
  EXPECT_NE(line->find("tuples_received=0"), std::string::npos) << *line;
  EXPECT_NE(line->find("basket.stats_in.rows=0"), std::string::npos) << *line;
  // The scrape connection is one-shot: the gateway closes it after the
  // reply instead of waiting for tuples.
  auto next = conn->ReadLine();
  EXPECT_FALSE(next.ok());
  // Regression: a scrape must not read as a completed sensor session — a
  // server waiting on finished() would otherwise shut down after the
  // first monitoring probe.
  clock->SleepFor(50'000);
  EXPECT_FALSE(ingress.finished());
  ingress.Stop();
}

}  // namespace
}  // namespace datacell
