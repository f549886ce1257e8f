// Layer probes: short timed loops over one simulator layer's public API,
// shaped by a workload's configuration. They give each host layer a cost
// per operation that a whole-simulation timing cannot separate out.
#pragma once

#include <cstdint>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

struct ProbeResult {
  double memsys_lookup_ns = 0;           ///< Cache::lookup, L1 and L2
  double memsys_invalidate_page_ns = 0;  ///< one page from L1 and L2
  double engine_event_ns = 0;            ///< EventQueue schedule + fire
  double svm_vclock_merge_ns = 0;        ///< VClock::merge at the node count
  double svm_diff_page_ns = 0;           ///< compute_diff + apply_diff
  double core_build_us = 0;              ///< Machine construction + teardown
  double apps_setup_us = 0;              ///< make_app + Workload::setup
};

/// Median of `v` (non-empty); every timing the benchmark reports is one.
[[nodiscard]] double median(std::vector<double> v);

/// Run every probe on the calling thread. Each reports the median over
/// several repetitions; `seed` fixes the probes' address and write patterns.
[[nodiscard]] ProbeResult run_probes(const Workload& w, std::uint64_t seed);

}  // namespace perfbench
