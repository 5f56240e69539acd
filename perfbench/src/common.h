// Shared pieces of the benchmark harness: clocks, exact percentiles,
// in-memory span tracing, and the per-run outcome every workload returns.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server;     // path to the datacell_server binary
  std::string launcher;   // path to perfbench_launch
  std::string trace_dir;  // where a traced run writes its spans ("" = none)
  std::string git_sha = "unknown";
  /// Wire workloads only: corrupt the receiver's decoded stream on purpose
  /// (one lost, one duplicated, one altered and one reordered tuple) so the
  /// self-check can prove the checker counts each fault.
  bool inject_fault = false;
};

/// Monotonic wall time in nanoseconds (std::chrono::steady_clock).
int64_t NowNs();

/// User + system CPU time of the calling thread, microseconds
/// (getrusage(RUSAGE_THREAD)).
int64_t ThreadCpuUs();

/// Peak resident set of this process in MiB (getrusage(RUSAGE_SELF)).
double SelfPeakRssMb();

/// Median of `v` (the mean of the two middle values for even sizes).
double Median(std::vector<double> v);

/// Exact nearest-rank percentiles over raw nanosecond samples, reported in
/// microseconds. `beyond_p99` is the number of samples strictly above p99.
struct Percentiles {
  double p50_us = 0;
  double p99_us = 0;
  size_t count = 0;
  size_t beyond_p99 = 0;
};
Percentiles ExactPercentiles(std::vector<int64_t> samples_ns);

/// Exact percentiles of each window, then the median across windows: a
/// burst of host vCPU stalls moves the windows it hits, not the result.
/// `count` is the total sample count, `beyond_p99` the smallest per-window
/// count beyond that window's p99.
Percentiles MedianOfWindows(std::vector<std::vector<int64_t>> windows_ns);

/// Fixed probe loops, a record of how fast the host ran; never used to
/// scale a metric. ProbeMs times an integer multiply chain (CPU speed),
/// ProbeMemMs a dependent random walk over 32 MiB (memory latency).
double ProbeMs();
double ProbeMemMs();

/// Pins the calling thread to one CPU on hosts with at least four, so an
/// in-process workload does not migrate between CPUs mid-run.
void PinToCpu(int cpu);

/// Minimal JSON object writer for the report lines.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string Render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};
std::string JsonNumber(double v);
std::string JsonString(const std::string& s);

/// One traced interval. `parent` is the 1-based index of the enclosing span
/// in the same Trace, 0 for a root.
struct Span {
  const char* name = nullptr;
  uint32_t parent = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Spans of one thread, kept in memory and written out when the run ends.
/// A disabled trace records nothing and reads no clock.
class Trace {
 public:
  explicit Trace(bool on) : on_(on) {}

  bool on() const { return on_; }
  /// Opens a span and returns its id (0 when tracing is off).
  uint32_t Begin(const char* name, uint32_t parent = 0);
  void End(uint32_t id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
};

class SpanScope {
 public:
  SpanScope(Trace* trace, const char* name, uint32_t parent = 0)
      : trace_(trace), id_(trace->Begin(name, parent)) {}
  ~SpanScope() { trace_->End(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  uint32_t id() const { return id_; }

 private:
  Trace* trace_;
  uint32_t id_;
};

/// Per span name: count, total time and self time (duration minus the part
/// covered by child spans), in microseconds.
struct SpanTotals {
  uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;
};
std::map<std::string, SpanTotals> SummarizeSpans(
    const std::vector<const Trace*>& traces);

/// Writes the spans (Chrome trace-event JSON, at most `max_events` per
/// thread) and the per-name totals to `path`.
bool WriteTraceFile(const std::string& path,
                    const std::vector<const Trace*>& traces,
                    const std::map<std::string, SpanTotals>& totals,
                    size_t max_events);

/// What one measured pass of a workload produced. `metrics` holds
/// end-to-end and per-layer values by their BENCHMARK.json names; metrics a
/// workload does not exercise are absent and reported as 0.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, SpanTotals> spans;  // traced passes only
  JsonObject detail;                        // sample counts and context
  std::vector<std::string> errors;

  void Fail(const std::string& error) {
    correct = false;
    if (errors.size() < 20) errors.push_back(error);
  }
};

/// Ends a traced pass: summarizes the spans into `out->spans` and, when
/// opts.trace_dir is set, writes them to <trace_dir>/<workload>-<seed>.json.
void FinishTrace(const Options& opts, const std::vector<const Trace*>& traces,
                 Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
