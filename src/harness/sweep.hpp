// Parameter-sweep driver used by the figure/table benches: runs an
// application suite across a list of configurations, caching the
// uniprocessor baseline per application, and computes the paper's speedup
// metrics (achievable / best / ideal).
//
// Thread-safety contract: baseline(), run_point() and run_points() may be
// called from several threads at once (the baseline cache is internally
// locked, each baseline is simulated once however many callers want it, and
// simulations share no state). run_points() with a JobPool fans
// the points out across the pool's workers after pre-warming every distinct
// baseline, and its results are bit-identical to the serial path: each point
// owns its Machine/EventQueue and writes an insertion-ordered result slot.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "core/params.hpp"
#include "core/runner.hpp"
#include "harness/job_pool.hpp"

namespace svmsim::harness {

struct AppRun {
  std::string app;
  double param = 0.0;       ///< swept parameter value for this point
  RunResult result;
  Cycles uniprocessor = 0;  ///< baseline time for this app

  [[nodiscard]] double speedup() const {
    return result.time > 0
               ? static_cast<double>(uniprocessor) /
                     static_cast<double>(result.time)
               : 0.0;
  }
  /// The paper's ideal speedup: uniprocessor time over compute + local
  /// stall of the slowest processor in the parallel run.
  [[nodiscard]] double ideal_speedup() const {
    const Cycles local = result.stats.max_local_only();
    return local > 0 ? static_cast<double>(uniprocessor) /
                           static_cast<double>(local)
                     : 0.0;
  }
};

/// A sweep point whose run failed: validation failure, deadlock, exceeded
/// max cycles or a rejected configuration. what() reads
/// "<app> param=<value>: <reason>".
class PointError : public std::runtime_error {
 public:
  PointError(const std::string& app, double value, const std::string& reason);

  [[nodiscard]] const std::string& app() const noexcept { return app_; }
  [[nodiscard]] double value() const noexcept { return value_; }
  [[nodiscard]] const std::string& reason() const noexcept { return reason_; }

 private:
  std::string app_;
  double value_;
  std::string reason_;
};

/// One simulation point of a sweep: an application at a configuration.
struct SweepPoint {
  std::string app;
  SimConfig cfg;
  double value = 0.0;  ///< recorded as AppRun::param
};

class Sweep {
 public:
  explicit Sweep(apps::Scale scale) : scale_(scale) {}

  /// Uniprocessor time for `app` under `base` (cached per app+page size).
  /// Each key is simulated once: a concurrent caller waits for the thread
  /// computing it. A failure is not cached, so every later caller recomputes
  /// it and its point names itself in the error.
  Cycles baseline(const std::string& app, const SimConfig& base);

  /// Run one application at one configuration. Any failure is rethrown as
  /// a PointError naming `app` and `param_value`.
  AppRun run_point(const std::string& app, const SimConfig& cfg,
                   double param_value);

  /// Run every point, concurrently on `pool` when it has more than one
  /// worker (serially otherwise). Results are returned in point order
  /// regardless of completion order.
  std::vector<AppRun> run_points(const std::vector<SweepPoint>& points,
                                 JobPool* pool = nullptr);

  /// Sweep `values`; `apply` writes the value into a config copy.
  std::vector<AppRun> run_sweep(
      const std::string& app, const SimConfig& base,
      const std::vector<double>& values,
      const std::function<void(SimConfig&, double)>& apply,
      JobPool* pool = nullptr);

  [[nodiscard]] apps::Scale scale() const noexcept { return scale_; }

 private:
  /// What the uniprocessor baseline actually depends on: communication
  /// parameters are irrelevant on one processor, and so is the protocol (on
  /// one node every page is home: HLRC makes no twins or diffs and AURC arms
  /// no automatic update, so uniprocessor_config() pins HLRC); page size
  /// changes local fault behavior.
  struct BaselineKey {
    std::string app;
    std::uint32_t page_bytes;
    auto operator<=>(const BaselineKey&) const = default;
  };
  static BaselineKey key_of(const std::string& app, const SimConfig& cfg) {
    return BaselineKey{app, cfg.comm.page_bytes};
  }

  /// Compute-and-cache every distinct baseline `points` will need, using
  /// `pool` so baseline runs overlap; afterwards the fan-out only reads.
  void prewarm_baselines(const std::vector<SweepPoint>& points, JobPool* pool);

  apps::Scale scale_;
  std::mutex mu_;  ///< guards baselines_
  /// Computed or in-flight baselines; a failed one is erased.
  std::map<BaselineKey, std::shared_future<Cycles>> baselines_;
};

/// Max slowdown between the best and the worst speedup in a sweep, as a
/// percentage (Table 3). Negative values indicate a speedup.
[[nodiscard]] double max_slowdown_pct(const std::vector<AppRun>& runs);

}  // namespace svmsim::harness
