// perfbench_harness: runs one benchmark workload and prints its result.
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s> --trace <0|1>
//       --server <path to datacell_server> [--trace-dir <dir>]
//       [--git-sha <sha>] [--inject-fault]
//   perfbench_harness --selftest
//
// With --trace 0 the result carries the end-to-end metrics of one
// untraced pass. With --trace 1 the run is split into an untraced and a
// traced half; the result carries the per-layer metrics of the traced half
// and the tracing overhead (the difference between the halves' p50).
//
// The last stdout line is {"correct", "attempted", "failed", "metrics"};
// the lines before it record the host and the run's details.
#include <sys/utsname.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "util/simd.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The names and units BENCHMARK.json declares.
const std::vector<MetricSpec> kEndToEnd = {
    {"throughput_tps", "1/s"}, {"latency_p50_us", "us"}, {"cpu_us_per_tuple", "us"},
    {"peak_rss_mb", "MB"},     {"setup_s", "s"},
};

// Per-layer metrics, plus the end-to-end p99: host vCPU stall storms move
// it by up to 10x between runs of the same code, so it carries no bound.

const std::vector<MetricSpec> kPerLayer = {
    {"e2e.latency_p99_us", "us"},
    {"net.codec.decode_ns_per_tuple", "ns"},
    {"net.codec.encode_ns_per_tuple", "ns"},
    {"net.gateway.backpressure_engagements", "count"},
    {"net.gen.send_blocked_us", "us"},
    {"net.shard.tuple_skew", "ratio"},
    {"net.server.sys_cpu_share", "ratio"},
    {"core.transition.rows_per_firing", "count"},
    {"core.transition.fire_p99_us", "us"},
    {"core.merge.fire_p50_us", "us"},
    {"core.basket.append_us_per_batch", "us"},
    {"core.scheduler.drain_us_per_batch", "us"},
    {"core.scheduler.self_us_per_batch", "us"},
    {"core.transition.firings_per_batch", "count"},
    {"sql.filter.busy_share", "ratio"},
    {"sql.aggregate.busy_share", "ratio"},
    {"sql.window.busy_share", "ratio"},
    {"sql.join.busy_share", "ratio"},
    {"sql.plan.stage_selectivity", "ratio"},
    {"sql.session.insert_us", "us"},
    {"sql.session.register_ms", "ms"},
    {"net.gen.lateness_p99_us", "us"},
    {"host.probe_ms", "ms"},
    {"host.probe_mem_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.span_sum_error_pct", "%"},
};

// A traced in-process pass whose batch span and parts disagree by more
// than this is reported incorrect.
constexpr double kSpanSumErrorBoundPct = 5.0;

Outcome RunPass(const Options& opts, double seconds, bool traced) {
  if (opts.workload == "wire_chain") return RunWirePass(opts, false, seconds, traced);
  if (opts.workload == "wire_sharded") return RunWirePass(opts, true, seconds, traced);
  return RunSqlStandingPass(opts, seconds, traced);
}

std::string MetricsJson(const std::vector<MetricSpec>& specs,
                        const std::map<std::string, double>& values) {
  JsonObject m;
  for (const MetricSpec& s : specs) {
    const auto it = values.find(s.name);
    m.Raw(s.name, JsonObject()
                      .Num("value", it == values.end() ? 0.0 : it->second)
                      .Str("unit", s.unit)
                      .Render());
  }
  return m.Render();
}

std::string ErrorsJson(const std::vector<std::string>& errors) {
  std::string out = "[";
  for (size_t i = 0; i < errors.size(); ++i) {
    out += (i ? ", " : "") + JsonString(errors[i]);
  }
  return out + "]";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload "
               "wire_chain|wire_sharded|sql_standing --seed N "
               "--seconds S --trace 0|1 --server PATH [--trace-dir DIR] "
               "[--git-sha SHA] [--inject-fault]\n"
               "       perfbench_harness --selftest\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--inject-fault") {
      opts.inject_fault = true;
    } else if (!has_value) {
      return Usage();
    } else if (arg == "--workload") {
      opts.workload = argv[++i];
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace") {
      opts.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--server") {
      opts.server = argv[++i];
    } else if (arg == "--trace-dir") {
      opts.trace_dir = argv[++i];
    } else if (arg == "--git-sha") {
      opts.git_sha = argv[++i];
    } else {
      return Usage();
    }
  }

  // perfbench_launch sits next to this binary.
  const std::string self = argv[0];
  opts.launcher = self.substr(0, self.rfind('/') + 1) + "perfbench_launch";

  // The self-test is cheap; every run starts with it.
  const int selftest_failures = RunSelfTest();
  if (selftest) {
    std::printf("selftest: %s\n", selftest_failures == 0 ? "ok" : "FAILED");
    return selftest_failures == 0 ? 0 : 1;
  }
  if (selftest_failures != 0) {
    std::fprintf(stderr, "perfbench: self-test failed; not measuring\n");
    return 1;
  }
  const bool known = opts.workload == "wire_chain" || opts.workload == "wire_sharded" ||
                     opts.workload == "sql_standing";
  if (!known || opts.seconds <= 0) return Usage();
  if (opts.workload.rfind("wire_", 0) == 0 && opts.server.empty()) return Usage();

  const double probe_start_ms = ProbeMs();
  const double probe_mem_start_ms = ProbeMemMs();
  Outcome result;
  std::map<std::string, double> metrics;
  if (!opts.trace) {
    result = RunPass(opts, opts.seconds, false);
    metrics = result.metrics;
  } else {
    // Untraced and traced halves of the run; the difference is the tracing
    // overhead.
    Outcome plain = RunPass(opts, opts.seconds / 2, false);
    result = RunPass(opts, opts.seconds / 2, true);
    metrics = result.metrics;
    const double base = plain.metrics["latency_p50_us"];
    metrics["trace.overhead_pct"] =
        base > 0 ? 100.0 * (result.metrics["latency_p50_us"] - base) / base : 0;
    result.attempted += plain.attempted;
    result.failed += plain.failed;
    if (!plain.correct) {
      for (const std::string& e : plain.errors) result.Fail("untraced half: " + e);
    }
    const auto err = metrics.find("trace.span_sum_error_pct");
    if (err != metrics.end() && std::abs(err->second) > kSpanSumErrorBoundPct) {
      result.Fail("batch spans and their parts differ by more than 5%");
    }
  }
  const double probe_end_ms = ProbeMs();
  const double probe_mem_end_ms = ProbeMemMs();
  metrics["host.probe_ms"] = (probe_start_ms + probe_end_ms) / 2;
  metrics["host.probe_mem_ms"] = (probe_mem_start_ms + probe_mem_end_ms) / 2;

  utsname uts{};
  uname(&uts);
  const datacell::simd::Level simd = datacell::simd::ActiveLevel();
  std::printf("%s\n",
              JsonObject()
                  .Raw("host", JsonObject()
                                   .Num("nproc", std::thread::hardware_concurrency())
                                   .Str("simd", datacell::simd::LevelName(simd))
                                   .Str("build_type", PERFBENCH_BUILD_TYPE)
                                   .Str("git_sha", opts.git_sha)
                                   .Str("kernel", uts.release)
                                   .Num("probe_start_ms", probe_start_ms)
                                   .Num("probe_end_ms", probe_end_ms)
                                   .Num("probe_mem_start_ms", probe_mem_start_ms)
                                   .Num("probe_mem_end_ms", probe_mem_end_ms)
                                   .Render())
                  .Render()
                  .c_str());
  if (!result.spans.empty()) {
    JsonObject spans;
    for (const auto& [name, st] : result.spans) {
      spans.Raw(name, JsonObject()
                          .Num("count", static_cast<double>(st.count))
                          .Num("total_us", st.total_us)
                          .Num("self_us", st.self_us)
                          .Render());
    }
    result.detail.Raw("spans", spans.Render());
  }
  result.detail.Str("workload", opts.workload)
      .Num("seed", static_cast<double>(opts.seed))
      .Num("seconds", opts.seconds)
      .Num("trace", opts.trace ? 1 : 0)
      .Raw("errors", ErrorsJson(result.errors));
  std::printf("%s\n", JsonObject().Raw("detail", result.detail.Render()).Render().c_str());
  const bool correct = result.correct && result.failed == 0 && result.attempted > 0;
  std::printf("%s\n",
              JsonObject()
                  .Raw("correct", correct ? "true" : "false")
                  .Num("attempted", static_cast<double>(std::max<uint64_t>(result.attempted, 1)))
                  .Num("failed", static_cast<double>(result.failed))
                  .Raw("metrics", MetricsJson(opts.trace ? kPerLayer : kEndToEnd, metrics))
                  .Render()
                  .c_str());
  return 0;
}
