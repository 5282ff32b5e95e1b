// The per-layer cost ladder of the traced run: the workload's pre-generated
// ticks driven through successive public entry points, each rung reporting
// <module>.ns_per_row and its marginal cost over the rung below.

#ifndef PERFBENCH_LADDER_H_
#define PERFBENCH_LADDER_H_

#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

// Every per-layer metric name, in report order.
const std::vector<std::string>& PerLayerMetricNames();

// Runs every rung for about `seconds` in total and adds the per-layer
// metrics (all but obs.bench_trace_overhead, which the caller measures) to
// `report`. Each timed call is recorded in `spans`.
void RunLadder(const std::string& workload, const Options& options,
               const Inputs& inputs, double seconds, SpanRecorder* spans,
               Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_LADDER_H_
