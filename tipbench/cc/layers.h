#ifndef TIPBENCH_LAYERS_H_
#define TIPBENCH_LAYERS_H_

// The traced run's per-layer metrics: counter deltas taken around the
// traced loop, span medians, and timed calls into each layer's public
// functions on this workload's own rows.

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace tipbench {

/// The engine's own counters, read directly from the served Database.
struct Counters {
  uint64_t statements = 0, bytes_out = 0, gate_wait_ms = 0;
  uint64_t plan_hits = 0, plan_misses = 0;
  uint64_t absolute_builds = 0, overlay_builds = 0, probes = 0;
  uint64_t index_rows_returned = 0;
  uint64_t fsyncs = 0, wal_bytes = 0, commits = 0;
};
Counters ReadCounters(Workload& w);
Counters operator-(const Counters& a, const Counters& b);

struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Every per-layer metric, in BENCHMARK.json order. `probe_dir` is a
/// scratch directory the storage probes may use.
Metrics MeasureLayers(Workload& w, const LoopResult& untraced,
                      const LoopResult& traced, const Counters& delta,
                      const std::string& probe_dir);

}  // namespace tipbench

#endif  // TIPBENCH_LAYERS_H_
