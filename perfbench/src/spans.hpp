// Spans recorded by the traced run around the benchmark's calls into the
// simulator: kept in memory, written out once at the end as a Chrome trace
// (chrome://tracing or Perfetto), and reduced to per-name self times.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  /// "point", "harness.queue", "harness.baseline" or "sim.run"
  std::string name;
  double start_s = 0; ///< seconds since the run's epoch
  double end_s = 0;
  int parent = -1;    ///< index of the enclosing span, or -1
  int worker = 0;     ///< pool worker that ran it
  int point = -1;     ///< point id (index in the workload), -1 for baselines
  std::string app;
  std::string param;  ///< "param=value" label
  std::uint64_t events = 0;
};

struct SelfTime {
  std::uint64_t count = 0;
  double total_s = 0;  ///< sum of durations
  double self_s = 0;   ///< durations minus the time their child spans cover
};

/// Self time per span name. Children of one span never overlap (they ran
/// on the parent's thread one after another).
[[nodiscard]] std::map<std::string, SelfTime> self_times(
    const std::vector<Span>& spans);

/// Write `spans` as Chrome trace-event JSON; returns false on an I/O error.
/// Names and labels are written unescaped: they are app names and
/// "param=value" labels, which hold no JSON specials.
[[nodiscard]] bool write_chrome_trace(const std::string& path,
                                      const std::vector<Span>& spans);

}  // namespace perfbench
