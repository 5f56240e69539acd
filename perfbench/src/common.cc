#include "common.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ThreadCpuUs() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1'000'000LL +
         ru.ru_utime.tv_usec + ru.ru_stime.tv_usec;
}

double SelfPeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

Percentiles ExactPercentiles(std::vector<int64_t> samples_ns) {
  Percentiles p;
  p.count = samples_ns.size();
  if (samples_ns.empty()) return p;
  std::sort(samples_ns.begin(), samples_ns.end());
  // Nearest rank: the smallest sample with at least q of all samples at or
  // below it.
  const auto rank = [&](double q) {
    size_t r = static_cast<size_t>(std::ceil(q * static_cast<double>(p.count)));
    return std::clamp<size_t>(r, 1, p.count) - 1;
  };
  const int64_t p99 = samples_ns[rank(0.99)];
  p.p50_us = static_cast<double>(samples_ns[rank(0.50)]) / 1000.0;
  p.p99_us = static_cast<double>(p99) / 1000.0;
  p.beyond_p99 = static_cast<size_t>(
      samples_ns.end() -
      std::upper_bound(samples_ns.begin(), samples_ns.end(), p99));
  return p;
}

Percentiles MedianOfWindows(std::vector<std::vector<int64_t>> windows_ns) {
  Percentiles out;
  std::vector<double> p50, p99;
  out.beyond_p99 = windows_ns.empty() ? 0 : SIZE_MAX;
  for (std::vector<int64_t>& w : windows_ns) {
    const Percentiles p = ExactPercentiles(std::move(w));
    p50.push_back(p.p50_us);
    p99.push_back(p.p99_us);
    out.count += p.count;
    out.beyond_p99 = std::min(out.beyond_p99, p.beyond_p99);
  }
  out.p50_us = Median(p50);
  out.p99_us = Median(p99);
  return out;
}

double ProbeMs() {
  const int64_t t0 = NowNs();
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 20'000'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    x ^= x >> 29;
  }
  const int64_t t1 = NowNs();
  // Keep the loop observable so it is not folded away.
  if (x == 42) std::fprintf(stderr, "probe\n");
  return static_cast<double>(t1 - t0) / 1e6;
}

namespace {

double ProbeMemMsInProcess() {
  // A single cycle through all slots (Sattolo's shuffle), so every step is
  // a dependent load from an unpredictable address.
  constexpr size_t kSlots = (32u << 20) / sizeof(uint32_t);
  std::vector<uint32_t> next(kSlots);
  for (size_t i = 0; i < kSlots; ++i) next[i] = static_cast<uint32_t>(i);
  uint64_t x = 0x2545F4914F6CDD1DULL;
  for (size_t i = kSlots - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next[i], next[x % i]);
  }
  // One untimed walk first: the first pass over fresh pages is erratic.
  uint32_t at = 0;
  for (int i = 0; i < 500'000; ++i) at = next[at];
  const int64_t t0 = NowNs();
  for (int i = 0; i < 500'000; ++i) at = next[at];
  const int64_t t1 = NowNs();
  if (at == kSlots) std::fprintf(stderr, "probe\n");
  return static_cast<double>(t1 - t0) / 1e6;
}

}  // namespace

double ProbeMemMs() {
  // The walk's 32 MiB would become this process's peak RSS, which the
  // in-process workloads report; a forked child runs it instead.
  int fds[2];
  if (pipe(fds) != 0) return 0;
  const pid_t child = fork();
  if (child == 0) {
    const double ms = ProbeMemMsInProcess();
    const ssize_t w = write(fds[1], &ms, sizeof(ms));
    _exit(w == sizeof(ms) ? 0 : 1);
  }
  close(fds[1]);
  double ms = 0;
  if (child < 0 || read(fds[0], &ms, sizeof(ms)) != sizeof(ms)) ms = 0;
  close(fds[0]);
  if (child > 0) waitpid(child, nullptr, 0);
  return ms;
}

void PinToCpu(int cpu) {
  if (std::thread::hardware_concurrency() < 4) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  fields_.emplace_back(key, JsonNumber(value));
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, JsonString(value));
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

std::string JsonObject::Render() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

uint32_t Trace::Begin(const char* name, uint32_t parent) {
  if (!on_) return 0;
  if (spans_.capacity() == 0) spans_.reserve(1 << 16);
  spans_.push_back(Span{name, parent, NowNs(), 0});
  return static_cast<uint32_t>(spans_.size());
}

void Trace::End(uint32_t id) {
  if (id == 0) return;
  spans_[id - 1].end_ns = NowNs();
}

std::map<std::string, SpanTotals> SummarizeSpans(
    const std::vector<const Trace*>& traces) {
  std::map<std::string, SpanTotals> totals;
  for (const Trace* t : traces) {
    const std::vector<Span>& spans = t->spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent != 0) child_ns[s.parent - 1] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      SpanTotals& st = totals[s.name];
      const int64_t dur = s.end_ns - s.start_ns;
      st.count++;
      st.total_us += static_cast<double>(dur) / 1000.0;
      st.self_us += static_cast<double>(dur - child_ns[i]) / 1000.0;
    }
  }
  return totals;
}

bool WriteTraceFile(const std::string& path,
                    const std::vector<const Trace*>& traces,
                    const std::map<std::string, SpanTotals>& totals,
                    size_t max_events) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = INT64_MAX;
  for (const Trace* t : traces) {
    if (!t->spans().empty()) {
      origin = std::min(origin, t->spans().front().start_ns);
    }
  }
  std::fprintf(f, "{\"traceEvents\": [");
  bool first = true;
  for (size_t tid = 0; tid < traces.size(); ++tid) {
    const std::vector<Span>& spans = traces[tid]->spans();
    const size_t n = std::min(spans.size(), max_events);
    for (size_t i = 0; i < n; ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "%s\n{\"name\": %s, \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f}",
                   first ? "" : ",", JsonString(s.name).c_str(), tid,
                   static_cast<double>(s.start_ns - origin) / 1000.0,
                   static_cast<double>(s.end_ns - s.start_ns) / 1000.0);
      first = false;
    }
  }
  std::fprintf(f, "\n], \"spanTotals\": {");
  first = true;
  for (const auto& [name, st] : totals) {
    std::fprintf(f,
                 "%s\n%s: {\"count\": %llu, \"total_us\": %s, "
                 "\"self_us\": %s}",
                 first ? "" : ",", JsonString(name).c_str(),
                 static_cast<unsigned long long>(st.count),
                 JsonNumber(st.total_us).c_str(),
                 JsonNumber(st.self_us).c_str());
    first = false;
  }
  std::fprintf(f, "\n}}\n");
  return std::fclose(f) == 0;
}

void FinishTrace(const Options& opts, const std::vector<const Trace*>& traces,
                 Outcome* out) {
  out->spans = SummarizeSpans(traces);
  if (opts.trace_dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(opts.trace_dir, ec);
  const std::string path = opts.trace_dir + "/" + opts.workload + "-" +
                           std::to_string(opts.seed) + ".json";
  if (!WriteTraceFile(path, traces, out->spans, 20'000)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  } else {
    out->detail.Str("trace_file", path);
  }
}

}  // namespace perfbench
