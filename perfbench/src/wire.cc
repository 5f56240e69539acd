// Wire workloads: an open-loop generator and an actuator-role receiver
// drive a spawned datacell_server through its CLI and line protocol.
//
//   wire_chain    8-query `select *` chain, 1 worker, bounded ingress,
//                 unsharded gateway, 2 sensor connections.
//   wire_sharded  the same server with DATACELL_SHARDS=2, 4 connections.
//
// Both offer 250k tuples/s on a fixed schedule. Latency runs from each
// tuple's scheduled send time to its arrival at the receiver; server CPU
// and peak RSS come from wait4 on the server process (perfbench_launch).
#include "workloads.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/codec.h"
#include "wire_check.h"

extern char** environ;

namespace perfbench {
namespace {

// 250k tuples/s offered as a burst of kPerTick tuples every kTickNs, each
// burst in one write on one connection.
constexpr int64_t kTickNs = 200'000;
constexpr uint64_t kPerTick = 50;
constexpr int64_t kWarmupNs = 1'000'000'000;  // unmeasured lead-in
constexpr int kQueries = 8;
constexpr size_t kIngressCapacity = 4096;
constexpr int kSetupSamples = 8;  // fresh set-ups besides the measured one
constexpr int kIoTimeoutMs = 30'000;

datacell::Schema StreamSchema() {
  return datacell::Schema({{"tag", datacell::DataType::kTimestamp},
                           {"payload", datacell::DataType::kInt64}});
}

// ---- sockets -------------------------------------------------------------

int ListenLoopback(uint16_t* port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return -1;
  }
  *port = ntohs(addr.sin_port);
  return fd;
}

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // A server that stops reading fails the run instead of hanging it.
  const timeval send_timeout{kIoTimeoutMs / 1000, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout, sizeof(send_timeout));
  return fd;
}

// Waits up to `timeout_ms` for `fd` to become readable.
bool WaitReadable(int fd, int timeout_ms) {
  pollfd p{fd, POLLIN, 0};
  int r;
  do {
    r = ::poll(&p, 1, timeout_ms);
  } while (r < 0 && errno == EINTR);
  return r > 0;
}

int AcceptWithTimeout(int listen_fd, int timeout_ms) {
  if (!WaitReadable(listen_fd, timeout_ms)) return -1;
  return ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
}

bool WriteAll(int fd, const char* data, size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

// Reads until the peer closes (or the timeout passes) and discards it.
void DrainUntilClosed(int fd, int timeout_ms) {
  char buf[4096];
  while (WaitReadable(fd, timeout_ms)) {
    const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
    if (r == 0 || (r < 0 && errno != EINTR)) return;
  }
}

// CPU placement on hosts with at least four CPUs: the generator on CPU 0,
// the receiver on CPU 1, the server's threads on CPUs 2 and 3. They then
// never compete for a CPU, and where each runs does not vary by run.
bool PinningOn() { return std::thread::hardware_concurrency() >= 4; }

void PinCallingThread(std::initializer_list<int> cpus) {
  if (!PinningOn()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

// ---- the server process --------------------------------------------------

// What the launcher reports about the server process once it exits.
struct ServerUsage {
  double user_us = 0;
  double sys_us = 0;
  double maxrss_mb = 0;
};

// One datacell_server child: stdout and stderr go to a pipe the harness
// reads; the destructor kills and reaps a child that is still running.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts `binary` through `launcher` (perfbench_launch), which reports
  /// the server's own CPU time and peak RSS when it exits.
  bool Spawn(const std::string& launcher, const std::string& binary,
             uint16_t actuator_port, bool sharded) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) return false;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
    posix_spawn_file_actions_adddup2(&actions, fds[1], 2);
    const std::vector<std::string> args = {
        launcher,
        binary,
        "0",
        "127.0.0.1",
        std::to_string(actuator_port),
        std::to_string(kQueries),
        "1",
        std::to_string(kIngressCapacity)};
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    // The inherited environment minus any DATACELL_* knob, plus ours.
    std::vector<std::string> env;
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "DATACELL_", 9) != 0) env.emplace_back(*e);
    }
    if (sharded) env.emplace_back("DATACELL_SHARDS=2");
    std::vector<char*> envp;
    for (const std::string& e : env) envp.push_back(const_cast<char*>(e.c_str()));
    envp.push_back(nullptr);
    // The child inherits the spawning thread's CPU mask.
    cpu_set_t mine;
    ::sched_getaffinity(0, sizeof(mine), &mine);
    PinCallingThread({2, 3});
    const int rc = ::posix_spawn(&pid_, launcher.c_str(), &actions, nullptr,
                                 argv.data(), envp.data());
    ::sched_setaffinity(0, sizeof(mine), &mine);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    out_fd_ = fds[0];
    if (rc != 0) {
      pid_ = -1;
      return false;
    }
    return true;
  }

  /// Reads the child's output until its "listening on <port>" line.
  /// Returns the port, or 0 on timeout / early exit.
  uint16_t WaitListening(int timeout_ms) {
    const int64_t deadline = NowNs() + int64_t{timeout_ms} * 1'000'000;
    while (true) {
      const size_t at = output_.find("listening on ");
      if (at != std::string::npos && output_.find('\n', at) != std::string::npos) {
        return static_cast<uint16_t>(std::atoi(output_.c_str() + at + 13));
      }
      const int64_t left_ms = (deadline - NowNs()) / 1'000'000;
      if (left_ms <= 0 || !ReadOutput(static_cast<int>(left_ms))) return 0;
    }
  }

  /// Reads whatever output is ready within `timeout_ms`; false at EOF or
  /// timeout.
  bool ReadOutput(int timeout_ms) {
    if (out_fd_ < 0 || !WaitReadable(out_fd_, timeout_ms)) return false;
    char buf[4096];
    const ssize_t r = ::read(out_fd_, buf, sizeof(buf));
    if (r <= 0) return false;
    output_.append(buf, static_cast<size_t>(r));
    return true;
  }

  /// Waits for the server to exit (reading its output meanwhile) and parses
  /// the launcher's usage line; kills it after `timeout_ms`. Returns false
  /// if it had to be killed, failed, or its usage is missing.
  bool Reap(int timeout_ms, ServerUsage* usage) {
    const int64_t deadline = NowNs() + int64_t{timeout_ms} * 1'000'000;
    int status = 0;
    bool exited = false;
    while (NowNs() < deadline) {
      if (!ReadOutput(100) && ::waitpid(pid_, &status, WNOHANG) == pid_) {
        while (ReadOutput(0)) {
        }
        exited = true;
        break;
      }
    }
    if (!exited) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
    const size_t at = output_.rfind("perfbench-launch: ");
    if (at == std::string::npos) return false;
    int code = -1;
    long long utime = 0, stime = 0;
    long maxrss = 0;
    if (std::sscanf(output_.c_str() + at,
                    "perfbench-launch: status=%d utime_us=%lld stime_us=%lld "
                    "maxrss_kb=%ld",
                    &code, &utime, &stime, &maxrss) != 4) {
      return false;
    }
    usage->user_us = static_cast<double>(utime);
    usage->sys_us = static_cast<double>(stime);
    usage->maxrss_mb = static_cast<double>(maxrss) / 1024.0;
    return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0 && code == 0;
  }

  const std::string& output() const { return output_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string output_;
};

// One fresh server from spawn until it listens, then a clean shutdown:
// a sensor connects and leaves, the server drains and exits.
bool TimeOneSetup(const Options& opts, bool sharded, double* setup_s) {
  uint16_t act_port = 0;
  const int act_fd = ListenLoopback(&act_port);
  if (act_fd < 0) return false;
  ServerProcess server;
  const int64_t t0 = NowNs();
  if (!server.Spawn(opts.launcher, opts.server, act_port, sharded)) {
    ::close(act_fd);
    return false;
  }
  const uint16_t port = server.WaitListening(kIoTimeoutMs);
  *setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  bool ok = port != 0;
  const int egress = AcceptWithTimeout(act_fd, ok ? kIoTimeoutMs : 0);
  if (ok) {
    const int fd = ConnectLoopback(port);
    const std::string header =
        datacell::net::Codec(StreamSchema()).EncodeSchemaHeader() + "\n";
    ok = fd >= 0 && WriteAll(fd, header.data(), header.size());
    if (fd >= 0) {
      ::shutdown(fd, SHUT_WR);
      DrainUntilClosed(fd, kIoTimeoutMs);
      ::close(fd);
    }
  }
  if (egress >= 0) {
    DrainUntilClosed(egress, kIoTimeoutMs);
    ::close(egress);
  }
  ::close(act_fd);
  ServerUsage usage;
  return server.Reap(kIoTimeoutMs, &usage) && ok;
}

// "STATS key=value ..." from the gateway's stats endpoint.
std::map<std::string, uint64_t> ScrapeStats(uint16_t port) {
  std::map<std::string, uint64_t> stats;
  const int fd = ConnectLoopback(port);
  if (fd < 0) return stats;
  std::string reply;
  if (WriteAll(fd, "STATS\n", 6)) {
    char buf[4096];
    while (reply.find('\n') == std::string::npos &&
           WaitReadable(fd, kIoTimeoutMs)) {
      const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
      if (r <= 0) break;
      reply.append(buf, static_cast<size_t>(r));
    }
  }
  ::close(fd);
  std::istringstream in(reply);
  std::string token;
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq != std::string::npos) {
      stats[token.substr(0, eq)] = std::strtoull(token.c_str() + eq + 1, nullptr, 10);
    }
  }
  return stats;
}

// The shutdown report's per-transition rows:
// name firings p50us p95us p99us maxus.
struct TransitionRow {
  uint64_t firings = 0;
  double p50 = 0, p99 = 0;
};
std::map<std::string, TransitionRow> ParseTransitionReport(const std::string& out) {
  std::map<std::string, TransitionRow> rows;
  std::istringstream in(out);
  std::string line;
  bool in_table = false;
  while (std::getline(in, line)) {
    if (line.rfind("transition ", 0) == 0) {
      in_table = true;
      continue;
    }
    if (!in_table) continue;
    std::istringstream fields(line);
    std::string name;
    TransitionRow row;
    double p95 = 0, max = 0;
    if (fields >> name >> row.firings >> row.p50 >> p95 >> row.p99 >> max) {
      rows[name] = row;
    }
  }
  return rows;
}

void SleepUntil(int64_t target_ns) {
  timespec ts{};
  ts.tv_sec = target_ns / 1'000'000'000;
  ts.tv_nsec = target_ns % 1'000'000'000;
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

int64_t RealtimeUs() {
  timespec ts{};
  ::clock_gettime(CLOCK_REALTIME, &ts);
  return ts.tv_sec * 1'000'000LL + ts.tv_nsec / 1000;
}

}  // namespace

Outcome RunWirePass(const Options& opts, bool sharded, double seconds,
                    bool traced) {
  Outcome out;
  const uint32_t nproc = std::max(1u, std::thread::hardware_concurrency());
  const uint32_t conns = std::min<uint32_t>(sharded ? 4 : 2, nproc);

  // Set-up: the median of several fresh spawn-to-listening times, the
  // measured server's own included.
  std::vector<double> setups;
  for (int i = 0; i < kSetupSamples; ++i) {
    double s = 0;
    if (!TimeOneSetup(opts, sharded, &s)) {
      out.Fail("set-up probe server failed");
      return out;
    }
    setups.push_back(s);
  }

  uint16_t act_port = 0;
  const int act_fd = ListenLoopback(&act_port);
  if (act_fd < 0) {
    out.Fail("cannot listen for the egress connection");
    return out;
  }
  ServerProcess server;
  const int64_t spawn_ns = NowNs();
  if (!server.Spawn(opts.launcher, opts.server, act_port, sharded)) {
    ::close(act_fd);
    out.Fail("cannot spawn " + opts.server);
    return out;
  }
  const uint16_t port = server.WaitListening(kIoTimeoutMs);
  setups.push_back(static_cast<double>(NowNs() - spawn_ns) / 1e9);
  if (port == 0) {
    ::close(act_fd);
    out.Fail("server never listened: " + server.output());
    return out;
  }

  // Every connection open and every header sent before the first tuple:
  // the server exits once all accepted connections have closed.
  std::vector<int> fds;
  const std::string header =
      datacell::net::Codec(StreamSchema()).EncodeSchemaHeader() + "\n";
  for (uint32_t c = 0; c < conns; ++c) {
    const int fd = ConnectLoopback(port);
    if (fd < 0 || !WriteAll(fd, header.data(), header.size())) {
      out.Fail("cannot open sensor connection");
      if (fd >= 0) ::close(fd);
      break;
    }
    fds.push_back(fd);
  }
  const int egress = AcceptWithTimeout(act_fd, kIoTimeoutMs);
  ::close(act_fd);
  if (egress < 0) out.Fail("server never connected its egress");
  if (!out.correct) {
    for (int fd : fds) ::close(fd);
    if (egress >= 0) ::close(egress);
    return out;
  }

  const int64_t ticks = (kWarmupNs + static_cast<int64_t>(seconds * 1e9)) / kTickNs;
  const uint64_t total = static_cast<uint64_t>(ticks) * kPerTick;
  const wire::Schedule schedule(opts.seed, conns, kPerTick, kTickNs, RealtimeUs());
  const int64_t start_ns = NowNs() + 2'000'000;
  const int64_t window_begin = start_ns + kWarmupNs;
  const int64_t window_end =
      window_begin + static_cast<int64_t>(seconds * 1e9);

  Trace recv_trace(traced);
  // Latency percentiles per 10 ms of scheduled time (2500 samples each),
  // combined across windows by MedianOfWindows.
  const size_t windows = std::max<size_t>(1, static_cast<size_t>(seconds * 100));
  wire::Receiver receiver(schedule, start_ns, window_begin, window_end,
                          windows, &recv_trace, opts.inject_fault);
  std::atomic<bool> receiver_timed_out{false};
  std::thread receiver_thread([&] {
    PinCallingThread({1});
    std::vector<char> buf(1 << 16);
    while (true) {
      if (!WaitReadable(egress, kIoTimeoutMs)) {
        receiver_timed_out = true;
        return;
      }
      const ssize_t r = ::recv(egress, buf.data(), buf.size(), 0);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) return;
      const int64_t recv_ns = NowNs();
      receiver.Consume(std::string_view(buf.data(), static_cast<size_t>(r)),
                       recv_ns);
    }
  });

  // The generator: every tick, send all tuples that have fallen due; each
  // tick's burst goes whole to one connection, the next tick's to the next.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  cpu_set_t original_mask;
  ::sched_getaffinity(0, sizeof(original_mask), &original_mask);
  PinCallingThread({0});
  Trace gen_trace(traced);
  datacell::net::Codec codec(StreamSchema());
  datacell::Table rows(StreamSchema());
  std::vector<std::string> bufs(conns);
  std::vector<uint64_t> sent_per_conn(conns, 0);
  std::vector<int64_t> lateness_ns;
  // The latest the generator sent any burst due in each latency window.
  std::vector<int64_t> window_max_late_ns(windows, 0);
  int64_t encode_ns = 0;
  int64_t send_ns = 0;
  uint64_t sent = 0;
  bool send_failed = false;
  for (int64_t tick = 0; sent < total && !send_failed; ++tick) {
    const int64_t target = start_ns + tick * kTickNs;
    SleepUntil(target);
    const int64_t now = NowNs();
    if (target >= window_begin && target < window_end) {
      lateness_ns.push_back(now - target);
      int64_t& late = window_max_late_ns[static_cast<size_t>(
          (target - window_begin) * static_cast<int64_t>(windows) / (window_end - window_begin))];
      late = std::max(late, now - target);
    }
    SpanScope tick_span(&gen_trace, "gen.tick");
    // Everything due by now, including ticks a late wake-up skipped.
    const uint64_t due = std::min<uint64_t>(
        total, static_cast<uint64_t>((now - start_ns) / kTickNs + 1) * kPerTick);
    if (due <= sent) continue;
    rows.Clear();
    for (uint64_t i = sent; i < due; ++i) {
      rows.column(0).AppendInt(schedule.Tag(i));
      rows.column(1).AppendInt(schedule.Payload(schedule.ConnOf(i), schedule.SeqOf(i)));
    }
    {
      SpanScope encode(&gen_trace, "codec.encode", tick_span.id());
      const int64_t t0 = traced ? NowNs() : 0;
      for (size_t r = 0; r < rows.num_rows(); ++r) {
        datacell::Result<std::string> line = codec.EncodeRow(rows, r);
        if (!line.ok()) {
          out.Fail("EncodeRow: " + line.status().ToString());
          send_failed = true;
          break;
        }
        std::string& buf = bufs[schedule.ConnOf(sent + r)];
        buf += *line;
        buf.push_back('\n');
      }
      if (traced) encode_ns += NowNs() - t0;
    }
    {
      SpanScope send(&gen_trace, "socket.send", tick_span.id());
      const int64_t t0 = NowNs();
      for (uint32_t c = 0; c < conns; ++c) {
        if (bufs[c].empty()) continue;
        if (!WriteAll(fds[c], bufs[c].data(), bufs[c].size())) send_failed = true;
        bufs[c].clear();
      }
      if (target >= window_begin && target < window_end) send_ns += NowNs() - t0;
    }
    for (uint64_t i = sent; i < due; ++i) sent_per_conn[schedule.ConnOf(i)]++;
    sent = due;
    if (tick % 1000 == 0) server.ReadOutput(0);
  }
  if (send_failed) out.Fail("a sensor connection failed mid-stream");

  ::sched_setaffinity(0, sizeof(original_mask), &original_mask);
  std::map<std::string, uint64_t> stats;
  if (traced) stats = ScrapeStats(port);
  for (int fd : fds) ::shutdown(fd, SHUT_WR);
  for (int fd : fds) {
    DrainUntilClosed(fd, kIoTimeoutMs);
    ::close(fd);
  }
  receiver_thread.join();
  ::close(egress);
  ServerUsage usage;
  const bool clean_exit = server.Reap(kIoTimeoutMs, &usage);
  if (!clean_exit) out.Fail("server did not exit cleanly");
  if (receiver_timed_out) out.Fail("receiver timed out waiting for output");
  if (!receiver.header_ok()) out.Fail("egress schema header missing or wrong");

  wire::StreamChecker& checker = receiver.checker();
  checker.Finish(sent_per_conn);
  const wire::CheckCounts& counts = checker.counts();
  out.attempted = sent;
  out.failed = counts.failed();
  if (out.failed > 0) out.Fail("tuples lost, duplicated, altered or reordered");

  std::vector<int64_t> all_ns;
  for (const std::vector<int64_t>& w : receiver.latencies_ns()) {
    all_ns.insert(all_ns.end(), w.begin(), w.end());
  }
  const Percentiles overall = ExactPercentiles(std::move(all_ns));
  // A window in which the generator sent a burst more than a tick late did
  // not offer the specified load: the host stalled the generator itself.
  // Such windows are left out, unless that would leave none.
  std::vector<std::vector<int64_t>> valid_windows;
  for (size_t w = 0; w < windows; ++w) {
    if (window_max_late_ns[w] <= kTickNs) {
      valid_windows.push_back(std::move(receiver.latencies_ns()[w]));
    }
  }
  const size_t windows_valid = valid_windows.size();
  const Percentiles lat = MedianOfWindows(
      windows_valid > 0 ? std::move(valid_windows) : std::move(receiver.latencies_ns()));
  const double server_cpu_us = usage.user_us + usage.sys_us;
  const double server_sys_us = usage.sys_us;
  const double window_s =
      static_cast<double>(receiver.last_window_recv_ns() - window_begin) / 1e9;

  out.metrics["setup_s"] = Median(setups);
  out.metrics["latency_p50_us"] = lat.p50_us;
  out.metrics["e2e.latency_p99_us"] = lat.p99_us;
  out.detail.Num("latency_windowed_p99_us", lat.p99_us);
  out.metrics["throughput_tps"] =
      window_s > 0 ? static_cast<double>(receiver.delivered_in_window()) / window_s : 0;
  out.metrics["cpu_us_per_tuple"] = sent > 0 ? server_cpu_us / static_cast<double>(sent) : 0;
  out.metrics["peak_rss_mb"] = usage.maxrss_mb;

  const Percentiles late = ExactPercentiles(std::move(lateness_ns));
  out.metrics["net.gen.lateness_p99_us"] = late.p99_us;
  out.metrics["net.server.sys_cpu_share"] =
      server_cpu_us > 0 ? server_sys_us / server_cpu_us : 0;
  if (traced) {
    out.metrics["net.codec.decode_ns_per_tuple"] =
        receiver.decoded() > 0 ? static_cast<double>(receiver.decode_ns()) /
                                     static_cast<double>(receiver.decoded())
                               : 0;
    out.metrics["net.codec.encode_ns_per_tuple"] =
        sent > 0 ? static_cast<double>(encode_ns) / static_cast<double>(sent) : 0;
    out.metrics["net.gen.send_blocked_us"] = static_cast<double>(send_ns) / 1000.0;
    out.metrics["net.gateway.backpressure_engagements"] =
        static_cast<double>(stats["backpressure_engagements"]);
    if (sharded) {
      uint64_t max_tuples = 0, sum_tuples = 0, shards = 0;
      for (uint64_t k = 0; stats.count("shard." + std::to_string(k) + ".tuples"); ++k) {
        const uint64_t t = stats["shard." + std::to_string(k) + ".tuples"];
        max_tuples = std::max(max_tuples, t);
        sum_tuples += t;
        shards++;
      }
      out.metrics["net.shard.tuple_skew"] =
          sum_tuples > 0 ? static_cast<double>(max_tuples) * static_cast<double>(shards) /
                               static_cast<double>(sum_tuples)
                         : 0;
    }
    const std::map<std::string, TransitionRow> report =
        ParseTransitionReport(server.output());
    uint64_t q1_firings = 0;
    double fire_p99 = 0;
    for (const auto& [name, row] : report) {
      if (name == "q1" || name.rfind("q1.", 0) == 0) q1_firings += row.firings;
      if (name[0] == 'q') fire_p99 = std::max(fire_p99, row.p99);
      if (name == "b0.merge") out.metrics["core.merge.fire_p50_us"] = row.p50;
    }
    out.metrics["core.transition.rows_per_firing"] =
        q1_firings > 0 ? static_cast<double>(sent) / static_cast<double>(q1_firings) : 0;
    out.metrics["core.transition.fire_p99_us"] = fire_p99;
    FinishTrace(opts, {&gen_trace, &recv_trace}, &out);
  }

  out.detail.Num("connections", conns)
      .Num("rate_tps", static_cast<double>(kPerTick) * 1e9 / kTickNs)
      .Num("tuples_per_tick", static_cast<double>(kPerTick))
      .Num("tuples_sent", static_cast<double>(sent))
      .Num("latency_samples", static_cast<double>(lat.count))
      .Num("latency_windows", static_cast<double>(windows))
      .Num("latency_windows_valid", static_cast<double>(windows_valid))
      .Num("latency_window_min_beyond_p99", static_cast<double>(lat.beyond_p99))
      .Num("latency_overall_p50_us", overall.p50_us)
      .Num("latency_overall_p99_us", overall.p99_us)
      .Num("latency_overall_beyond_p99", static_cast<double>(overall.beyond_p99))
      .Num("lateness_samples", static_cast<double>(late.count))
      .Num("lateness_p50_us", late.p50_us)
      .Num("lateness_p99_us", late.p99_us)
      .Num("lost", static_cast<double>(counts.lost))
      .Num("duplicated", static_cast<double>(counts.duplicated))
      .Num("altered", static_cast<double>(counts.altered))
      .Num("out_of_order", static_cast<double>(counts.out_of_order))
      .Num("undecodable", static_cast<double>(counts.undecodable))
      .Num("setup_samples", static_cast<double>(setups.size()));
  return out;
}

}  // namespace perfbench
