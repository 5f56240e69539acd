// Figure 4: effect of inter-process communication (§6.1).
//
// A sensor streams 10^5 two-column tuples over TCP; a chain of `select *`
// continuous queries runs inside the DataCell; an actuator receives the
// results. We measure (a) elapsed time and (b) throughput, with the kernel
// in the loop (8..64 queries) and without it (sensor -> actuator directly).
//
// Expected shape (paper): elapsed time grows with the number of queries;
// the kernel-less line is flat and is a large share of the total (the
// communication overhead dominates); throughput without the kernel exceeds
// every with-kernel configuration and decreases as queries are added.

#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "core/basket.h"
#include "core/factory.h"
#include "core/receptor.h"
#include "core/scheduler.h"
#include "net/actuator.h"
#include "net/gateway.h"
#include "net/sensor.h"
#include "net/shard.h"
#include "util/clock.h"
#include "util/logging.h"

namespace datacell {
namespace {

struct RunResult {
  double elapsed_ms_per_1k = 0;  // E(b) normalized to 1000-tuple batches
  double mean_latency_ms = 0;
  double throughput_tps = 0;
  uint64_t tuples = 0;
};

uint64_t NumTuples() {
  const char* env = std::getenv("DATACELL_FIG4_TUPLES");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 30000ULL;
}

// Sensor -> actuator, no kernel.
Result<RunResult> RunWithoutKernel(uint64_t num_tuples) {
  SystemClock* clock = SystemClock::Get();
  net::Actuator actuator(clock);
  RETURN_NOT_OK(actuator.Start());
  net::Sensor::Options opts;
  opts.num_tuples = num_tuples;
  opts.tuples_per_write = 1;  // a write per event: the worst-case protocol
  RETURN_NOT_OK(net::Sensor::Run("127.0.0.1", actuator.port(), opts, clock));
  actuator.WaitFinished();
  const net::Actuator::Stats stats = actuator.stats();
  RunResult out;
  out.tuples = stats.tuples;
  out.mean_latency_ms = stats.MeanLatency() / 1000.0;
  const double elapsed_s =
      static_cast<double>(stats.Elapsed()) / kMicrosPerSecond;
  out.throughput_tps = elapsed_s > 0 ? static_cast<double>(stats.tuples) / elapsed_s
                                     : 0;
  out.elapsed_ms_per_1k =
      stats.tuples == 0
          ? 0
          : static_cast<double>(stats.Elapsed()) / kMicrosPerMilli /
                (static_cast<double>(stats.tuples) / 1000.0);
  return out;
}

// Sensor -> DataCell (query chain of `num_queries` select * factories) ->
// actuator.
Result<RunResult> RunWithKernel(uint64_t num_tuples, int num_queries) {
  SystemClock* clock = SystemClock::Get();

  // Baskets b0 .. bk; factory i moves everything from b_{i-1} to b_i.
  const Schema stream = net::Sensor::StreamSchema();
  std::vector<core::BasketPtr> baskets;
  auto b0 = std::make_shared<core::Basket>("b0", stream);
  baskets.push_back(b0);
  for (int i = 1; i <= num_queries; ++i) {
    baskets.push_back(std::make_shared<core::Basket>(
        "b" + std::to_string(i), b0->schema(), /*add_arrival_ts=*/false));
  }

  core::Scheduler scheduler(clock);
  for (int i = 1; i <= num_queries; ++i) {
    core::BasketPtr in = baskets[static_cast<size_t>(i - 1)];
    core::BasketPtr out = baskets[static_cast<size_t>(i)];
    // One tuple per firing: this experiment characterizes the *basic*
    // tuple-at-a-time processing model (batch processing is evaluated
    // separately in Figure 5(a)), which is what makes the per-query kernel
    // cost visible against the communication overhead.
    auto f = std::make_shared<core::Factory>(
        "q" + std::to_string(i), [in, out](core::FactoryContext& ctx) -> Status {
          if (in->empty()) return Status::OK();
          ASSIGN_OR_RETURN(Table one, in->TakeRows({0}));
          ASSIGN_OR_RETURN(size_t n, out->AppendAligned(one, ctx.now()));
          (void)n;
          return Status::OK();
        });
    f->AddInput(in);
    f->AddOutput(out);
    scheduler.Register(f);
  }

  net::Actuator actuator(clock);
  RETURN_NOT_OK(actuator.Start());
  ASSIGN_OR_RETURN(auto egress, net::TcpEgress::Connect("127.0.0.1",
                                                        actuator.port()));
  auto emitter = std::make_shared<core::Emitter>("e", egress->MakeSink());
  emitter->AddInput(baskets.back());
  scheduler.Register(emitter);

  auto receptor = std::make_shared<core::Receptor>("r");
  receptor->AddOutput(b0);
  // Tuple-at-a-time ingress (max batch 1): the paper's processing model in
  // this experiment, which is what makes the per-query kernel cost visible
  // next to the communication overhead.
  net::ShardedIngressOptions ingress_opts;
  ingress_opts.max_batch_rows = 1;
  net::ShardedIngress ingress({receptor}, net::Codec(stream), clock,
                              ingress_opts);
  RETURN_NOT_OK(ingress.Start());
  RETURN_NOT_OK(scheduler.Start());

  net::Sensor::Options opts;
  opts.num_tuples = num_tuples;
  opts.tuples_per_write = 1;
  RETURN_NOT_OK(net::Sensor::Run("127.0.0.1", ingress.port(), opts, clock));

  // Wait for the pipeline to drain.
  for (int i = 0; i < 60000 && actuator.stats().tuples < num_tuples; ++i) {
    clock->SleepFor(1000);
  }
  scheduler.Stop();
  RETURN_NOT_OK(egress->Finish());
  actuator.WaitFinished();
  ingress.Stop();

  const net::Actuator::Stats stats = actuator.stats();
  RunResult out;
  out.tuples = stats.tuples;
  out.mean_latency_ms = stats.MeanLatency() / 1000.0;
  const double elapsed_s =
      static_cast<double>(stats.Elapsed()) / kMicrosPerSecond;
  out.throughput_tps = elapsed_s > 0 ? static_cast<double>(stats.tuples) / elapsed_s
                                     : 0;
  out.elapsed_ms_per_1k =
      stats.tuples == 0
          ? 0
          : static_cast<double>(stats.Elapsed()) / kMicrosPerMilli /
                (static_cast<double>(stats.tuples) / 1000.0);
  return out;
}

}  // namespace
}  // namespace datacell

int main() {
  using datacell::RunResult;
  const uint64_t n = datacell::NumTuples();
  std::printf("=== Figure 4: effect of inter-process communication ===\n");
  std::printf("sensor -> [DataCell query chain] -> actuator over TCP loopback, "
              "%llu tuples\n\n",
              static_cast<unsigned long long>(n));
  std::printf("%-24s %10s %16s %16s %14s\n", "configuration", "queries",
              "elapsed(ms/1k)", "mean_lat(ms)", "tput(tup/s)");

  auto base = datacell::RunWithoutKernel(n);
  if (!base.ok()) {
    std::fprintf(stderr, "without-kernel run failed: %s\n",
                 base.status().ToString().c_str());
    return 1;
  }
  std::printf("%-24s %10s %16.2f %16.2f %14.0f\n", "without kernel", "-",
              base->elapsed_ms_per_1k, base->mean_latency_ms,
              base->throughput_tps);

  for (int queries : {8, 16, 32, 64}) {
    auto r = datacell::RunWithKernel(n, queries);
    if (!r.ok()) {
      std::fprintf(stderr, "with-kernel run (%d queries) failed: %s\n",
                   queries, r.status().ToString().c_str());
      return 1;
    }
    std::printf("%-24s %10d %16.2f %16.2f %14.0f\n", "with kernel", queries,
                r->elapsed_ms_per_1k, r->mean_latency_ms, r->throughput_tps);
  }
  std::printf(
      "\nshape check (paper): without-kernel throughput highest & elapsed "
      "flat;\nwith-kernel elapsed grows and throughput falls as queries are "
      "added.\n");
  return 0;
}
