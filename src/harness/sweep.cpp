#include "harness/sweep.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace svmsim::harness {

namespace {

std::string point_message(const std::string& app, double value,
                          const std::string& reason) {
  char v[32];
  std::snprintf(v, sizeof v, "%g", value);
  return app + " param=" + v + ": " + reason;
}

}  // namespace

PointError::PointError(const std::string& app, double value,
                       const std::string& reason)
    : std::runtime_error(point_message(app, value, reason)),
      app_(app),
      value_(value),
      reason_(reason) {}

Cycles Sweep::baseline(const std::string& app, const SimConfig& base) {
  const BaselineKey key = key_of(app, base);
  std::promise<Cycles> computed;
  std::shared_future<Cycles> pending;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto [it, fresh] = baselines_.try_emplace(key);
    if (fresh) {
      it->second = computed.get_future().share();
    } else {
      pending = it->second;
    }
  }
  // Another caller owns this key: wait for its value (or its failure).
  if (pending.valid()) return pending.get();
  // Simulate outside the lock so callers computing different baselines
  // overlap.
  try {
    auto w = apps::make_app(app, scale_);
    const RunResult r = run(*w, uniprocessor_config(base));
    if (!r.validated) {
      throw std::runtime_error(app + ": uniprocessor run failed validation");
    }
    computed.set_value(r.time);
    return r.time;
  } catch (...) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      baselines_.erase(key);
    }
    computed.set_exception(std::current_exception());
    throw;
  }
}

AppRun Sweep::run_point(const std::string& app, const SimConfig& cfg,
                        double param_value) {
  AppRun out;
  out.app = app;
  out.param = param_value;
  try {
    out.uniprocessor = baseline(app, cfg);
    auto w = apps::make_app(app, scale_);
    out.result = run(*w, cfg);
  } catch (const std::exception& e) {
    throw PointError(app, param_value, e.what());
  }
  if (!out.result.validated) {
    throw PointError(app, param_value, "run failed validation");
  }
  return out;
}

void Sweep::prewarm_baselines(const std::vector<SweepPoint>& points,
                              JobPool* pool) {
  std::vector<const SweepPoint*> distinct;
  {
    std::lock_guard<std::mutex> lk(mu_);
    std::map<BaselineKey, bool> seen;
    for (const auto& p : points) {
      const BaselineKey key = key_of(p.app, p.cfg);
      if (baselines_.contains(key) ||
          !seen.emplace(key, true).second) {
        continue;
      }
      distinct.push_back(&p);
    }
  }
  std::vector<JobPool::Job> jobs;
  jobs.reserve(distinct.size());
  for (const SweepPoint* p : distinct) {
    jobs.push_back([this, p] {
      // A failing baseline is reported by the points that need it: their
      // run_point recomputes it and names itself in the PointError.
      try {
        baseline(p->app, p->cfg);
      } catch (const std::exception&) {
      }
    });
  }
  pool->run(std::move(jobs));
}

std::vector<AppRun> Sweep::run_points(const std::vector<SweepPoint>& points,
                                      JobPool* pool) {
  std::vector<AppRun> out(points.size());
  if (pool == nullptr || pool->size() <= 1 || points.size() <= 1) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      out[i] = run_point(points[i].app, points[i].cfg, points[i].value);
    }
    return out;
  }
  // Baselines first, so the fan-out below never computes one twice.
  prewarm_baselines(points, pool);
  std::vector<JobPool::Job> jobs;
  jobs.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    jobs.push_back([this, &points, &out, i] {
      out[i] = run_point(points[i].app, points[i].cfg, points[i].value);
    });
  }
  pool->run(std::move(jobs));
  return out;
}

std::vector<AppRun> Sweep::run_sweep(
    const std::string& app, const SimConfig& base,
    const std::vector<double>& values,
    const std::function<void(SimConfig&, double)>& apply, JobPool* pool) {
  std::vector<SweepPoint> points;
  points.reserve(values.size());
  for (double v : values) {
    SweepPoint p{app, base, v};
    apply(p.cfg, v);
    points.push_back(std::move(p));
  }
  return run_points(points, pool);
}

double max_slowdown_pct(const std::vector<AppRun>& runs) {
  if (runs.size() < 2) return 0.0;
  // The paper computes the slowdown between the smallest and the biggest
  // value of the swept parameter: first point vs last point.
  const double fast = runs.front().speedup();
  const double slow = runs.back().speedup();
  // A non-positive speedup at either endpoint means that run is invalid
  // (zero time or zero baseline); there is no meaningful slowdown to report.
  if (fast <= 0.0 || slow <= 0.0) return 0.0;
  return (fast / slow - 1.0) * 100.0;
}

}  // namespace svmsim::harness
