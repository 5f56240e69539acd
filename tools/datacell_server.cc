// Standalone DataCell kernel (§6.1 topology): accepts sensor streams on
// one TCP port, runs a chain of continuous `select *` queries through the
// Petri-net scheduler, and forwards results to an actuator — the paper's
// three-process experiment, runnable for real. The gateway multiplexes
// any number of concurrent sensors on the listen port; start several
// `sensor` processes in parallel to fan in:
//
//   terminal 1: actuator 9001
//   terminal 2: datacell_server 9000 127.0.0.1 9001 16
//   terminal 3+: sensor 127.0.0.1 9000 100000   (as many as you like)
//
//   datacell_server <listen_port> <actuator_host> <actuator_port>
//       [queries] [workers] [capacity]
//
// `workers` sizes the scheduler's worker pool (default: the hardware
// concurrency); independent query-chain segments fire in parallel.
// `capacity` (rows, default 0 = unbounded) bounds the ingress basket(s):
// when resident rows reach it the gateway stops reading the sensor
// sockets (TCP push-back, no drops) and resumes once the query chain
// drains the basket below the low watermark (capacity/2).
//
// While the server runs, the listen port doubles as a stats endpoint:
// a connection whose first line is `STATS` (instead of a schema header)
// gets back one `key=value ...` line — ingress/drop/backpressure counters
// plus per-basket occupancy — and is closed. Scrape it with
// `echo STATS | nc 127.0.0.1 <listen_port>`. At shutdown the server
// prints per-transition firing counts and latency percentiles from the
// observability registry (docs/SQL.md describes the same data exposed
// through SQL as dc_* virtual tables).
//
// Sharding (DESIGN.md §15): the gateway is one acceptor in front of n
// epoll reactor shards, n = 1 by default.
//   DATACELL_SHARDS=<n>        n >= 2 fd-hashes connections onto n shards;
//                              each shard delivers into its own bounded
//                              basket b0.s<k> (capacity split n ways), the
//                              query chain is cloned per shard, and a
//                              fixed-shard-order merge transition re-joins
//                              the partitions before the emitter. With one
//                              shard the chain starts at basket b0 and has
//                              no merge.
//
// Durability (all opt-in via environment, unset = exactly the old server):
//   DATACELL_LOG=<path>        append every ingested batch to a replayable
//                              ingest log; on startup, tuples past the last
//                              ack are replayed into the ingress basket(s),
//                              so a crash-restart cycle loses nothing the
//                              log had accepted. `SEQ` on the listen port
//                              tells a reconnecting sensor where to resume
//                              (sharded: the across-shard stream total).
//   DATACELL_FSYNC=none|batch|always   log fsync policy (default batch).
//   DATACELL_SPILL_PAGES=<n>   attach an <n>-frame (64 KiB each) spill
//                              buffer pool to the bounded ingress
//                              basket(s): overflow past `capacity` evicts
//                              cold tuples to disk instead of closing the
//                              TCP valve.
//   DATACELL_SPILL_FILE=<path> spill file location (default
//                              "datacell.spill", removed on exit).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/basket.h"
#include "core/engine.h"
#include "core/factory.h"
#include "core/receptor.h"
#include "core/scheduler.h"
#include "net/gateway.h"
#include "net/sensor.h"
#include "net/shard.h"
#include "sql/plan/partition.h"
#include "storage/ingest_log.h"
#include "storage/pager.h"
#include "util/clock.h"

int main(int argc, char** argv) {
  using datacell::Status;
  using datacell::Table;
  using datacell::Value;
  namespace core = datacell::core;
  namespace net = datacell::net;
  namespace plan = datacell::sql::plan;
  namespace storage = datacell::storage;

  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: %s <listen_port> <actuator_host> <actuator_port> "
                 "[queries] [workers] [capacity]\n",
                 argv[0]);
    return 2;
  }
  const uint16_t listen_port = static_cast<uint16_t>(std::atoi(argv[1]));
  const char* actuator_host = argv[2];
  const uint16_t actuator_port = static_cast<uint16_t>(std::atoi(argv[3]));
  const int queries = argc > 4 ? std::atoi(argv[4]) : 8;
  const int workers_arg = argc > 5 ? std::atoi(argv[5]) : 0;
  const size_t workers =
      workers_arg > 0 ? static_cast<size_t>(workers_arg)
                      : std::max(1u, std::thread::hardware_concurrency());
  const long capacity_arg = argc > 6 ? std::atol(argv[6]) : 0;
  const size_t capacity =
      capacity_arg > 0 ? static_cast<size_t>(capacity_arg) : 0;
  size_t shards = 1;
  if (const char* shards_env = std::getenv("DATACELL_SHARDS")) {
    const long n = std::atol(shards_env);
    if (n > 1) shards = static_cast<size_t>(n);
  }

  datacell::SystemClock* clock = datacell::SystemClock::Get();
  const datacell::Schema stream = net::Sensor::StreamSchema();

  core::Engine engine(clock, workers);
  engine.SetVariable("dc_shards", Value(static_cast<int64_t>(shards)));

  // Per-shard query chain: b0.s<k> -> q1.s<k> -> ... -> qN.s<k>'s output.
  // The unsharded server is the shards == 1 instance of the same topology
  // minus the ".s0"/".merged" suffixes kept for name compatibility; both
  // run the same cloned-stage builder.
  const auto make_chain = [&](const std::string& suffix,
                              const core::BasketPtr& in)
      -> datacell::Result<core::BasketPtr> {
    core::BasketPtr prev = in;
    for (int i = 1; i <= queries; ++i) {
      ASSIGN_OR_RETURN(
          core::BasketPtr next,
          engine.CreateBasket("b" + std::to_string(i) + suffix,
                              prev->schema(), /*add_arrival_ts=*/false));
      core::BasketPtr from = prev;
      auto f = std::make_shared<core::Factory>(
          "q" + std::to_string(i) + suffix,
          [from, next](core::FactoryContext& ctx) -> Status {
            Table batch = from->TakeAll();
            if (batch.num_rows() == 0) return Status::OK();
            auto n = next->AppendAligned(batch, ctx.now());
            return n.status();
          });
      f->AddInput(from);
      f->AddOutput(next);
      engine.Register(f);
      prev = next;
    }
    return prev;
  };

  // Ingress baskets + (sharded) merge topology.
  std::vector<core::BasketPtr> ingress_baskets;
  core::BasketPtr emit_basket;  // the basket the emitter reads
  if (shards == 1) {
    auto b0 = capacity > 0 ? engine.CreateBoundedBasket("b0", stream, capacity)
                           : engine.CreateBasket("b0", stream);
    if (!b0.ok()) {
      std::fprintf(stderr, "cannot create ingress basket: %s\n",
                   b0.status().ToString().c_str());
      return 1;
    }
    ingress_baskets.push_back(*b0);
    auto tail = make_chain("", *b0);
    if (!tail.ok()) {
      std::fprintf(stderr, "cannot build query chain: %s\n",
                   tail.status().ToString().c_str());
      return 1;
    }
    emit_basket = *tail;
  } else {
    plan::PartitionSpec spec;
    spec.base = "b0";
    spec.partitions = shards;
    spec.capacity = capacity;
    auto chain = plan::BuildPartitionedChain(
        &engine, spec, stream,
        [&](size_t k, const core::BasketPtr& in) {
          return make_chain(".s" + std::to_string(k), in);
        });
    if (!chain.ok()) {
      std::fprintf(stderr, "cannot build sharded topology: %s\n",
                   chain.status().ToString().c_str());
      return 1;
    }
    ingress_baskets = chain->inputs;
    emit_basket = chain->merged;
  }

  // Optional spill tier on the bounded ingress basket(s), sharing one pool.
  std::unique_ptr<storage::BufferPool> spill_pool;
  const char* spill_pages_env = std::getenv("DATACELL_SPILL_PAGES");
  if (spill_pages_env != nullptr && std::atol(spill_pages_env) > 0) {
    const char* spill_file = std::getenv("DATACELL_SPILL_FILE");
    auto pager = storage::Pager::Open(
        spill_file != nullptr ? spill_file : "datacell.spill");
    if (!pager.ok()) {
      std::fprintf(stderr, "cannot open spill file: %s\n",
                   pager.status().ToString().c_str());
      return 1;
    }
    spill_pool = std::make_unique<storage::BufferPool>(
        std::move(*pager), static_cast<size_t>(std::atol(spill_pages_env)));
    for (const core::BasketPtr& b : ingress_baskets) {
      b->AttachSpill(spill_pool.get());
    }
  }

  // Optional replayable ingest log.
  std::unique_ptr<storage::IngestLog> ingest_log;
  const char* log_path = std::getenv("DATACELL_LOG");
  if (log_path != nullptr && *log_path != '\0') {
    storage::FsyncPolicy policy = storage::FsyncPolicy::kBatch;
    if (const char* fsync_env = std::getenv("DATACELL_FSYNC")) {
      if (std::strcmp(fsync_env, "none") == 0) {
        policy = storage::FsyncPolicy::kNone;
      } else if (std::strcmp(fsync_env, "always") == 0) {
        policy = storage::FsyncPolicy::kAlways;
      }
    }
    auto log = storage::IngestLog::Open(log_path, policy);
    if (!log.ok()) {
      std::fprintf(stderr, "cannot open ingest log: %s\n",
                   log.status().ToString().c_str());
      return 1;
    }
    ingest_log = std::move(*log);
    // Replay before the gateway starts: every tuple past the last ack goes
    // back into the basket named by its stream (b0 unsharded, b0.s<k> per
    // shard — the engine resolves either) so the query chain re-processes
    // what the crash interrupted. Direct appends: the replay path must not
    // re-append to the log.
    auto replayed = engine.ReplayIngest(log_path);
    if (!replayed.ok()) {
      std::fprintf(stderr, "ingest log replay failed: %s\n",
                   replayed.status().ToString().c_str());
      return 1;
    }
    if (replayed->replayed > 0 || replayed->torn_tail) {
      std::printf("datacell: replayed %llu logged tuples%s\n",
                  static_cast<unsigned long long>(replayed->replayed),
                  replayed->torn_tail ? " (torn tail truncated)" : "");
    }
  }

  auto egress = net::TcpEgress::Connect(actuator_host, actuator_port);
  if (!egress.ok()) {
    std::fprintf(stderr, "cannot reach actuator: %s\n",
                 egress.status().ToString().c_str());
    return 1;
  }
  auto emitter = std::make_shared<core::Emitter>("e", (*egress)->MakeSink());
  emitter->AddInput(emit_basket);
  engine.Register(emitter);

  // One receptor per ingress basket, i.e. per gateway shard.
  std::vector<core::ReceptorPtr> receptors;
  for (size_t k = 0; k < ingress_baskets.size(); ++k) {
    auto receptor = std::make_shared<core::Receptor>(
        shards == 1 ? "r" : "r.s" + std::to_string(k));
    receptor->AddOutput(ingress_baskets[k]);
    receptors.push_back(std::move(receptor));
  }

  net::ShardedIngress ingress(receptors, net::Codec(stream), clock);
  if (ingest_log != nullptr) ingress.EnableIngestLog(ingest_log.get());
  if (Status st = ingress.Start(listen_port); !st.ok()) {
    std::fprintf(stderr, "cannot listen: %s\n", st.ToString().c_str());
    return 1;
  }
  if (Status st = engine.scheduler().Start(); !st.ok()) {
    std::fprintf(stderr, "scheduler failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("datacell: listening on %u, %d-query chain, %zu workers, "
              "%zu shard(s)%s%s, forwarding to %s:%u\n",
              ingress.port(), queries, workers, shards,
              capacity > 0 ? ", bounded ingress" : "",
              ingest_log != nullptr ? ", logged" : "", actuator_host,
              actuator_port);
  std::fflush(stdout);

  // Serve until every connected sensor has disconnected, drain, and exit.
  while (!ingress.finished()) clock->SleepFor(10'000);
  while (true) {
    bool empty = true;
    for (const std::string& name : engine.ListBaskets()) {
      auto b = engine.GetBasket(name);
      if (b.ok() && !(*b)->empty()) empty = false;
    }
    if (empty) break;
    clock->SleepFor(10'000);
  }
  clock->SleepFor(50'000);  // let the emitter flush
  engine.scheduler().Stop();
  if (Status st = (*egress)->Finish(); !st.ok()) {
    std::fprintf(stderr, "egress finish: %s\n", st.ToString().c_str());
  }
  if (ingest_log != nullptr) {
    // Clean shutdown: everything logged was drained through the chain and
    // flushed to the actuator, so acknowledge it all — the next start
    // replays nothing.
    for (const storage::IngestLog::StreamInfo& si : ingest_log->Streams()) {
      if (si.last_seq > si.acked) {
        if (Status st = ingest_log->Ack(si.name, si.last_seq); !st.ok()) {
          std::fprintf(stderr, "log ack: %s\n", st.ToString().c_str());
        }
      }
    }
    if (Status st = ingest_log->Sync(); !st.ok()) {
      std::fprintf(stderr, "log sync: %s\n", st.ToString().c_str());
    }
  }
  std::printf("datacell: done (%llu tuples ingested, %llu malformed dropped, "
              "%llu backpressure engagements)\n",
              static_cast<unsigned long long>(ingress.tuples_received()),
              static_cast<unsigned long long>(ingress.tuples_dropped()),
              static_cast<unsigned long long>(
                  ingress.backpressure_engagements()));
  std::printf("transition      firings      p50us      p95us      p99us"
              "      maxus\n");
  for (const core::Scheduler::TransitionStats& t :
       engine.scheduler().TransitionStatsSnapshot()) {
    std::printf("%-12s %10llu %10.0f %10.0f %10.0f %10lld\n",
                t.name.c_str(), static_cast<unsigned long long>(t.firings),
                t.latency.p50(), t.latency.p95(), t.latency.p99(),
                static_cast<long long>(t.latency.max));
  }
  // Stop the gateway before the engine (and its baskets) go away.
  ingress.Stop();
  return 0;
}
