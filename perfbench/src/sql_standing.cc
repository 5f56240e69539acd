// sql_standing: one sql::Session with sharing on, driven cooperatively
// (closed loop) with 1024-row batches on a skewed key. The standing set:
//
//   f0..f31  shared-prefix filters (v < 5000 AND a private key range) — the
//            optimizer's compiled filter subnet
//   agg0     SELECT k % 16, count, sum, min, max ... GROUP BY k % 16
//   agg1     SELECT k, count, sum ... WHERE v >= 2500 GROUP BY k
//   win      a TOP 128 window over tag order
//   join     stream x reference-table join on k; `tee` copies the stream
//            into the join's own basket so it sees every tuple too
//
// The reference table gets an INSERT every kInsertEvery batches. Every
// query's output is checked against a plain C++ evaluation of the same
// batch, off the clock.
#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/scheduler.h"
#include "sql/session.h"
#include "util/clock.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

using datacell::Table;

constexpr size_t kBatchRows = 1024;
constexpr int kFilters = 32;
constexpr int64_t kKeys = 1024;
constexpr int64_t kFilterWidth = 48;
constexpr int64_t kSharedBound = 5000;  // v < 5000 is every filter's prefix
constexpr int64_t kAgg1Bound = 2500;
constexpr size_t kWindow = 128;
constexpr int kInsertEvery = 16;
constexpr int kInsertRows = 4;
constexpr int kInitialRefRows = 64;
constexpr int kSetups = 15;
constexpr uint64_t kSliceBatches = 128;
constexpr size_t kLatencySliceBatches = 1024;

int64_t FilterLo(int i) { return (static_cast<int64_t>(i) * 29) % (kKeys - kFilterWidth); }

// Skewed keys: k = floor(kKeys * u^3) puts most tuples on small keys.
int64_t SkewedKey(datacell::Random* rng) {
  const double u = rng->NextDouble();
  return std::min<int64_t>(kKeys - 1, static_cast<int64_t>(kKeys * u * u * u));
}

std::string FilterName(int i) {
  std::string name = "f";
  name += std::to_string(i);
  return name;
}

using Row = std::vector<int64_t>;
using Rows = std::vector<Row>;

// The live pipeline: engine, session, standing queries and their sinks.
struct Pipeline {
  datacell::SimulatedClock clock{0};
  datacell::core::Engine engine{&clock};
  datacell::sql::Session session{&engine};
  datacell::core::BasketPtr source;
  // Per query: tables its sink received since the last check.
  std::map<std::string, std::vector<Table>> outputs;
  double register_ms = 0;
};

Rows ToRows(const std::vector<Table>& tables) {
  Rows rows;
  for (const Table& t : tables) {
    for (size_t r = 0; r < t.num_rows(); ++r) {
      Row row;
      for (size_t c = 0; c < t.num_columns(); ++c) {
        // Every output column is an integer; anything else cannot match.
        const datacell::Value v = t.column(c).GetValue(r);
        row.push_back(v.is_int() ? v.int_value() : INT64_MIN);
      }
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

datacell::Result<std::unique_ptr<Pipeline>> BuildPipeline(
    const std::vector<std::pair<int64_t, int64_t>>& initial_ref) {
  auto p = std::make_unique<Pipeline>();
  p->session.set_sharing_enabled(true);
  std::string ddl =
      "create basket s (tag int, k int, v int); "
      "create basket sj (tag int, k int, v int); "
      "create table ref (k int, w int); insert into ref values ";
  for (size_t i = 0; i < initial_ref.size(); ++i) {
    ddl += (i ? ", (" : "(") + std::to_string(initial_ref[i].first) + ", " +
           std::to_string(initial_ref[i].second) + ")";
  }
  RETURN_NOT_OK(p->session.Execute(ddl + ";").status());

  const int64_t t0 = NowNs();
  Pipeline* raw = p.get();
  const auto select = [&](const std::string& name, const std::string& sql) {
    raw->outputs[name];
    return raw->session
        .RegisterContinuousSelect(name, sql,
                                  [raw, name](const Table& t) {
                                    raw->outputs[name].push_back(t);
                                    return datacell::Status::OK();
                                  })
        .status();
  };
  for (int i = 0; i < kFilters; ++i) {
    RETURN_NOT_OK(select(
        FilterName(i),
        "select * from [select * from s where v < " + std::to_string(kSharedBound) +
            " and k >= " + std::to_string(FilterLo(i)) + " and k < " +
            std::to_string(FilterLo(i) + kFilterWidth) + "]"));
  }
  RETURN_NOT_OK(select("agg0",
                       "select k % 16 as g, count(*) as n, sum(v) as sv, "
                       "min(v) as mn, max(v) as mx from [select * from s] "
                       "group by k % 16"));
  RETURN_NOT_OK(select("agg1",
                       "select k, count(*) as n, sum(v) as sv from [select * "
                       "from s where v >= " +
                           std::to_string(kAgg1Bound) + "] group by k"));
  RETURN_NOT_OK(select("win", "select count(*) as n, sum(v) as sv, max(v) as mx "
                              "from [select top " +
                                  std::to_string(kWindow) +
                                  " from s order by tag]"));
  RETURN_NOT_OK(
      p->session.RegisterContinuousQuery("tee", "insert into sj [select * from s]")
          .status());
  RETURN_NOT_OK(select("join",
                       "select x.tag, x.v, r.w from [select * from sj] as x, "
                       "ref as r where x.k = r.k"));
  p->register_ms = static_cast<double>(NowNs() - t0) / 1e6;
  ASSIGN_OR_RETURN(p->source, p->engine.GetBasket("s"));
  return p;
}

// Plain C++ evaluation of the standing set, batch by batch.
class Reference {
 public:
  explicit Reference(const std::vector<std::pair<int64_t, int64_t>>& ref) {
    for (const auto& [k, w] : ref) ref_[k].push_back(w);
  }
  void Insert(int64_t k, int64_t w) { ref_[k].push_back(w); }

  // Expected per-query rows for one batch of (tag, k, v).
  std::map<std::string, Rows> Evaluate(const Rows& batch) {
    std::map<std::string, Rows> expect;
    for (int i = 0; i < kFilters; ++i) {
      Rows& rows = expect[FilterName(i)];
      for (const Row& r : batch) {
        if (r[2] < kSharedBound && r[1] >= FilterLo(i) &&
            r[1] < FilterLo(i) + kFilterWidth) {
          rows.push_back(r);
        }
      }
    }
    std::map<int64_t, std::array<int64_t, 4>> g0;  // n, sum, min, max
    std::map<int64_t, std::array<int64_t, 2>> g1;
    for (const Row& r : batch) {
      auto it = g0.try_emplace(r[1] % 16, std::array<int64_t, 4>{0, 0, r[2], r[2]}).first;
      it->second[0]++;
      it->second[1] += r[2];
      it->second[2] = std::min(it->second[2], r[2]);
      it->second[3] = std::max(it->second[3], r[2]);
      if (r[2] >= kAgg1Bound) {
        g1[r[1]][0]++;
        g1[r[1]][1] += r[2];
      }
    }
    for (const auto& [g, a] : g0) expect["agg0"].push_back({g, a[0], a[1], a[2], a[3]});
    for (const auto& [g, a] : g1) expect["agg1"].push_back({g, a[0], a[1]});
    for (const Row& r : batch) {
      window_.push_back(r);
      if (window_.size() == kWindow) {
        int64_t sum = 0, max = INT64_MIN;
        for (const Row& w : window_) {
          sum += w[2];
          max = std::max(max, w[2]);
        }
        expect["win"].push_back({static_cast<int64_t>(kWindow), sum, max});
        window_.clear();
      }
      auto it = ref_.find(r[1]);
      if (it != ref_.end()) {
        for (int64_t w : it->second) expect["join"].push_back({r[0], r[2], w});
      }
    }
    return expect;
  }

 private:
  std::map<int64_t, std::vector<int64_t>> ref_;
  Rows window_;
};

// The operator family a transition belongs to, for the sql.*.busy_share
// metrics.
const char* FamilyOf(const std::string& name) {
  if (name.rfind("mqo.", 0) == 0 || name[0] == 'f') return "filter";
  if (name.rfind("agg", 0) == 0) return "aggregate";
  if (name == "win") return "window";
  return "join";  // join and the tee that feeds it
}

}  // namespace

Outcome RunSqlStandingPass(const Options& opts, double seconds, bool traced) {
  Outcome out;
  PinToCpu(2);
  datacell::Random rng(opts.seed * 0x9E3779B97F4A7C15ULL + 17);
  // Reference keys do not depend on the seed (only their values do), so the
  // join's output volume is the same for every seed.
  std::vector<std::pair<int64_t, int64_t>> initial_ref;
  for (int i = 0; i < kInitialRefRows; ++i) {
    initial_ref.emplace_back(i * (kKeys / kInitialRefRows),
                             static_cast<int64_t>(rng.Uniform(1000)));
  }

  // Set-up: the median of several fresh pipelines; the last one runs.
  std::vector<double> setups, registers;
  std::unique_ptr<Pipeline> p;
  for (int i = 0; i < kSetups; ++i) {
    p.reset();
    const int64_t t0 = NowNs();
    datacell::Result<std::unique_ptr<Pipeline>> built = BuildPipeline(initial_ref);
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!built.ok()) {
      out.Fail("pipeline set-up: " + built.status().ToString());
      return out;
    }
    p = std::move(*built);
    registers.push_back(p->register_ms);
  }

  Reference reference(initial_ref);
  datacell::core::Scheduler& scheduler = p->engine.scheduler();
  const auto transitions_before = scheduler.TransitionStatsSnapshot();
  Trace trace(traced);
  std::vector<int64_t> latency_ns;
  std::vector<double> insert_us;
  int64_t busy_ns = 0, append_ns = 0, drain_ns = 0, batch_ns = 0, cpu_us = 0;
  uint64_t tuples = 0, batches = 0, inserts_made = 0;
  // Throughput and CPU per tuple per slice of kSliceBatches batches; the
  // metrics are their medians, so a slow second of the host moves one
  // slice, not the result.
  std::vector<double> slice_tps, slice_cpu;
  int64_t slice_busy_ns = 0, slice_cpu_us = 0;
  int64_t tag = 0;
  const int64_t begin = NowNs();
  const int64_t deadline = begin + static_cast<int64_t>(seconds * 1e9);
  Table batch(datacell::Schema({{"tag", datacell::DataType::kInt64},
                                {"k", datacell::DataType::kInt64},
                                {"v", datacell::DataType::kInt64}}));
  Rows batch_rows;
  while (NowNs() < deadline) {
    // Input for this batch, generated off the clock.
    batch.Clear();
    batch_rows.clear();
    for (size_t i = 0; i < kBatchRows; ++i) {
      const int64_t k = SkewedKey(&rng);
      const int64_t v = static_cast<int64_t>(rng.Uniform(10'000));
      batch.column(0).AppendInt(tag);
      batch.column(1).AppendInt(k);
      batch.column(2).AppendInt(v);
      batch_rows.push_back({tag, k, v});
      ++tag;
    }

    const int64_t cpu0 = ThreadCpuUs();
    const int64_t t0 = NowNs();
    int64_t t1 = 0, t2 = 0;
    {
      SpanScope span(&trace, "batch");
      {
        SpanScope append(&trace, "basket.append", span.id());
        datacell::Result<size_t> n = p->source->Append(batch, p->clock.Now());
        if (!n.ok()) out.Fail("append: " + n.status().ToString());
      }
      t1 = NowNs();
      {
        SpanScope drain(&trace, "scheduler.drain", span.id());
        datacell::Result<size_t> rounds = scheduler.RunUntilQuiescent();
        if (!rounds.ok()) out.Fail("drain: " + rounds.status().ToString());
      }
      t2 = NowNs();
    }
    const int64_t t3 = NowNs();
    cpu_us += ThreadCpuUs() - cpu0;
    latency_ns.push_back(t2 - t0);
    append_ns += t1 - t0;
    drain_ns += t2 - t1;
    batch_ns += t3 - t0;
    busy_ns += t2 - t0;
    tuples += kBatchRows;
    ++batches;
    p->clock.Advance(1000);

    // Check every query's output for this batch, off the clock.
    {
      SpanScope check(&trace, "reference.check");
      std::map<std::string, Rows> expect = reference.Evaluate(batch_rows);
      for (auto& [name, tables] : p->outputs) {
        Rows got = ToRows(tables);
        Rows& want = expect[name];
        if (name.rfind("agg", 0) == 0 || name == "join") {
          std::sort(got.begin(), got.end());
          std::sort(want.begin(), want.end());
        }
        out.attempted++;
        if (got != want) {
          out.failed++;
          out.Fail(name + " differs from the reference at batch " +
                   std::to_string(batches) + " (" + std::to_string(got.size()) +
                   " rows vs " + std::to_string(want.size()) + ")");
        }
        tables.clear();
      }
    }

    if (batches % kSliceBatches == 0) {
      const double slice_tuples = static_cast<double>(kSliceBatches * kBatchRows);
      slice_tps.push_back(slice_tuples * 1e9 / static_cast<double>(busy_ns - slice_busy_ns));
      slice_cpu.push_back(static_cast<double>(cpu_us - slice_cpu_us) / slice_tuples);
      slice_busy_ns = busy_ns;
      slice_cpu_us = cpu_us;
    }

    // A write beside the standing reads.
    if (batches % kInsertEvery == 0) {
      std::string sql = "insert into ref values ";
      std::vector<std::pair<int64_t, int64_t>> rows;
      for (int i = 0; i < kInsertRows; ++i) {
        // Cold keys (the top 32 of the skewed range, ~1% of tuples): the
        // join's work grows slowly as the table grows.
        const int64_t key = kKeys - 32 + static_cast<int64_t>(inserts_made++ % 32);
        rows.emplace_back(key, static_cast<int64_t>(rng.Uniform(1000)));
        sql += (i ? ", (" : "(") + std::to_string(rows.back().first) + ", " +
               std::to_string(rows.back().second) + ")";
      }
      const int64_t c0 = ThreadCpuUs();
      const int64_t i0 = NowNs();
      datacell::Status st;
      {
        SpanScope span(&trace, "session.insert");
        st = p->session.Execute(sql).status();
      }
      const int64_t i1 = NowNs();
      cpu_us += ThreadCpuUs() - c0;
      busy_ns += i1 - i0;
      insert_us.push_back(static_cast<double>(i1 - i0) / 1000.0);
      out.attempted++;
      if (!st.ok()) {
        out.failed++;
        out.Fail("insert: " + st.ToString());
      }
      for (const auto& [k, w] : rows) reference.Insert(k, w);
    }
  }

  // Exact percentiles per kLatencySliceBatches batches (p99 with at least
  // ten beyond it), median over slices; the whole-run values go to the
  // details.
  std::vector<std::vector<int64_t>> latency_slices;
  for (size_t at = 0; at < latency_ns.size(); at += kLatencySliceBatches) {
    const size_t end = std::min(latency_ns.size(), at + kLatencySliceBatches);
    if (end - at < kLatencySliceBatches && !latency_slices.empty()) break;
    latency_slices.emplace_back(latency_ns.begin() + static_cast<ptrdiff_t>(at),
                                latency_ns.begin() + static_cast<ptrdiff_t>(end));
  }
  const Percentiles overall = ExactPercentiles(latency_ns);
  const size_t latency_slices_used = latency_slices.size();
  const Percentiles lat = MedianOfWindows(std::move(latency_slices));
  out.metrics["setup_s"] = Median(setups);
  out.metrics["latency_p50_us"] = lat.p50_us;
  out.metrics["e2e.latency_p99_us"] = lat.p99_us;
  out.detail.Num("latency_windowed_p99_us", lat.p99_us);
  if (slice_tps.empty() && busy_ns > 0) {  // a run shorter than one slice
    slice_tps.push_back(static_cast<double>(tuples) * 1e9 / static_cast<double>(busy_ns));
    slice_cpu.push_back(static_cast<double>(cpu_us) / static_cast<double>(tuples));
  }
  out.metrics["throughput_tps"] = Median(slice_tps);
  out.metrics["cpu_us_per_tuple"] = Median(slice_cpu);
  out.metrics["peak_rss_mb"] = SelfPeakRssMb();

  if (traced && batches > 0) {
    const double nb = static_cast<double>(batches);
    // Busy time and firings of every transition during the measured loop.
    // Transition statistics live in the process-wide metrics registry, so
    // count only what this loop added.
    struct Counts {
      uint64_t us = 0, firings = 0, rows_in = 0, rows_out = 0;
    };
    std::map<std::string, Counts> before;
    for (const auto& t : transitions_before) {
      before[t.name] = {t.latency.sum, t.firings, t.rows_in, t.rows_out};
    }
    std::map<std::string, double> family_us;
    double busy_us = 0, firings = 0, stage_in = 0, stage_out = 0;
    for (const auto& t : scheduler.TransitionStatsSnapshot()) {
      const Counts& b = before[t.name];
      const double us = static_cast<double>(t.latency.sum - b.us);
      family_us[FamilyOf(t.name)] += us;
      busy_us += us;
      firings += static_cast<double>(t.firings - b.firings);
      if (t.name.rfind("mqo.", 0) == 0) {
        stage_in += static_cast<double>(t.rows_in - b.rows_in);
        stage_out += static_cast<double>(t.rows_out - b.rows_out);
      }
    }
    const double drain_us = static_cast<double>(drain_ns) / 1000.0;
    const double self_us = drain_us - busy_us;
    out.metrics["core.basket.append_us_per_batch"] = static_cast<double>(append_ns) / 1000.0 / nb;
    out.metrics["core.scheduler.drain_us_per_batch"] = drain_us / nb;
    out.metrics["core.scheduler.self_us_per_batch"] = self_us / nb;
    out.metrics["core.transition.firings_per_batch"] = firings / nb;
    for (const char* family : {"filter", "aggregate", "window", "join"}) {
      out.metrics[std::string("sql.") + family + ".busy_share"] =
          drain_us > 0 ? family_us[family] / drain_us : 0;
    }
    out.metrics["sql.plan.stage_selectivity"] = stage_in > 0 ? stage_out / stage_in : 0;
    out.metrics["sql.session.insert_us"] = Median(insert_us);
    out.metrics["sql.session.register_ms"] = Median(registers);
    // The batch span must be covered by its parts: append, the scheduler's
    // own time and the transitions' busy time.
    const double batch_us = static_cast<double>(batch_ns) / 1000.0;
    const double parts_us = static_cast<double>(append_ns) / 1000.0 + self_us + busy_us;
    out.metrics["trace.span_sum_error_pct"] =
        batch_us > 0 ? 100.0 * (batch_us - parts_us) / batch_us : 0;
    if (self_us < 0) out.Fail("transition busy time exceeds the drain span");
    FinishTrace(opts, {&trace}, &out);
  }

  out.detail.Num("batches", static_cast<double>(batches))
      .Num("batch_rows", kBatchRows)
      .Num("standing_queries", static_cast<double>(p->outputs.size()))
      .Num("inserts", static_cast<double>(insert_us.size()))
      .Num("slices", static_cast<double>(slice_tps.size()))
      .Num("overall_tps", busy_ns > 0 ? static_cast<double>(tuples) * 1e9 /
                                            static_cast<double>(busy_ns)
                                      : 0)
      .Num("latency_samples", static_cast<double>(overall.count))
      .Num("latency_slices", static_cast<double>(latency_slices_used))
      .Num("latency_slice_min_beyond_p99", static_cast<double>(lat.beyond_p99))
      .Num("latency_overall_p50_us", overall.p50_us)
      .Num("latency_overall_p99_us", overall.p99_us)
      .Num("latency_overall_beyond_p99", static_cast<double>(overall.beyond_p99))
      .Num("setup_samples", static_cast<double>(setups.size()));
  return out;
}

}  // namespace perfbench
