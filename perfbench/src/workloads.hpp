// The benchmark's three workloads: fixed lists of simulation points, built
// only from the simulator's public configuration types.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "core/params.hpp"

namespace perfbench {

/// One simulation point: an application at a configuration. `source` names
/// the paper figure/table (or sweep) that requests it and `param` the value
/// that distinguishes it, e.g. "fig05" and "host_overhead=2000".
struct Point {
  std::string app;
  svmsim::SimConfig cfg;
  std::string source;
  std::string param;
};

struct Workload {
  std::string name;
  svmsim::apps::Scale scale = svmsim::apps::Scale::kSmall;
  std::vector<Point> points;  ///< canonical order; point id = index
  /// Seed of the submission-order shuffle; unset keeps the canonical order.
  /// Simulated results never depend on it, only how the pool packs points.
  std::optional<std::uint64_t> shuffle_seed;
  /// The configuration the layer probes are shaped by (cache geometry, page
  /// size, node count).
  svmsim::SimConfig probe_cfg;
  /// Applications whose setup the apps.setup_us probe times.
  std::vector<std::string> probe_apps;
};

/// "paper-small", "regular-large" and "cluster-256".
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Build a workload. `seed` picks the stress-gen programs of cluster-256
/// (stress-gen@4*seed .. 4*seed+3) and the submission order of the other
/// two. Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

}  // namespace perfbench
