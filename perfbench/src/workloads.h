// The benchmark's workloads. Each Run*Pass measures one pass of `seconds`
// with tracing on or off and returns its metrics by BENCHMARK.json name.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

Outcome RunWirePass(const Options& opts, bool sharded, double seconds,
                    bool traced);
Outcome RunSqlStandingPass(const Options& opts, double seconds, bool traced);

/// The benchmark's own tests: the wire checker must count every fault the
/// injector plants. Returns the number of failed checks (0 = pass).
int RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
