// The benchmark's own tests. They run the wire receiver's real path
// (framing, Codec::DecodeInto, checker) over a synthetic egress stream and
// require every planted fault to be counted, plus the exact-percentile
// arithmetic on known data.
#include <cstdio>
#include <string>
#include <vector>

#include "net/codec.h"
#include "wire_check.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Expect {
  const char* what;
  uint64_t got;
  uint64_t want;
};

int CheckAll(const char* test, const std::vector<Expect>& expects) {
  int failures = 0;
  for (const Expect& e : expects) {
    if (e.got != e.want) {
      std::fprintf(stderr, "selftest %s: %s = %llu, want %llu\n", test, e.what,
                   static_cast<unsigned long long>(e.got),
                   static_cast<unsigned long long>(e.want));
      ++failures;
    }
  }
  return failures;
}

// Runs `tuples` scheduled tuples (plus `extra_lines`) through a Receiver
// in 4 KiB chunks and returns its counts.
wire::CheckCounts Receive(bool inject_fault, uint64_t tuples,
                          const std::string& extra_lines) {
  const datacell::Schema schema({{"tag", datacell::DataType::kTimestamp},
                                 {"payload", datacell::DataType::kInt64}});
  const wire::Schedule schedule(/*seed=*/5, /*conns=*/2, /*per_tick=*/10,
                                /*tick_ns=*/1'000'000,
                                /*base_tag_us=*/1'700'000'000'000'000);
  datacell::net::Codec codec(schema);
  datacell::Table rows(schema);
  std::vector<uint64_t> sent(2, 0);
  for (uint64_t i = 0; i < tuples; ++i) {
    rows.column(0).AppendInt(schedule.Tag(i));
    rows.column(1).AppendInt(schedule.Payload(schedule.ConnOf(i), schedule.SeqOf(i)));
    sent[schedule.ConnOf(i)]++;
  }
  std::string stream = codec.EncodeSchemaHeader() + "\n";
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    stream += codec.EncodeRow(rows, r).value() + "\n";
  }
  stream += extra_lines;

  Trace trace(false);
  wire::Receiver receiver(schedule, 0, 0, INT64_MAX, 1, &trace, inject_fault);
  for (size_t at = 0; at < stream.size(); at += 4096) {
    receiver.Consume(std::string_view(stream).substr(at, 4096), 0);
  }
  receiver.checker().Finish(sent);
  return receiver.checker().counts();
}

}  // namespace

int RunSelfTest() {
  int failures = 0;

  const wire::CheckCounts clean = Receive(false, 6000, "");
  failures += CheckAll("clean", {{"received", clean.received, 6000},
                                 {"failed", clean.failed(), 0}});

  const wire::CheckCounts faulty = Receive(true, 6000, "");
  const wire::CheckCounts want = wire::FaultInjector::Expected();
  failures += CheckAll("injected", {{"lost", faulty.lost, want.lost},
                                    {"duplicated", faulty.duplicated, want.duplicated},
                                    {"altered", faulty.altered, want.altered},
                                    {"out_of_order", faulty.out_of_order, want.out_of_order},
                                    {"undecodable", faulty.undecodable, 0}});

  const wire::CheckCounts garbage = Receive(false, 100, "not|a|tuple\n");
  failures += CheckAll("undecodable", {{"undecodable", garbage.undecodable, 1},
                                       {"failed", garbage.failed(), 1}});

  std::vector<int64_t> samples;
  for (int64_t i = 1000; i >= 1; --i) samples.push_back(i * 1000);
  const Percentiles p = ExactPercentiles(samples);
  failures += CheckAll("percentiles", {{"p50_us", static_cast<uint64_t>(p.p50_us), 500},
                                       {"p99_us", static_cast<uint64_t>(p.p99_us), 990},
                                       {"beyond_p99", p.beyond_p99, 10},
                                       {"count", p.count, 1000}});
  return failures;
}

}  // namespace perfbench
