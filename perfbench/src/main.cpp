// svmbench: the repository benchmark. It runs one workload of simulation
// points on a JobPool through the simulator's public library API and
// reports host cost end to end (untraced run) or per layer (traced run).
//
//   svmbench --workload=paper-small|regular-large|cluster-256 --seed=N
//            --seconds=S --trace=0|1 [--spans=PATH]
//
// A run first computes the workload's distinct uniprocessor baselines, the
// set-up, several times over; then:
//   --trace=0  runs the whole workload repeatedly for about S seconds (at
//              least once) and reports the end-to-end metrics as medians
//              over those passes;
//   --trace=1  alternates untraced and traced passes for about S seconds (at
//              least one pair), runs the layer probes, writes the first
//              traced pass's spans to PATH and reports the per-layer metrics.
// Every pass must reproduce the first one point by point.
// Every point is its own job and catches its own exception, so a failing
// point is counted and named instead of aborting the batch. The last line
// of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Exit status is 0 whenever that line is printed.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <exception>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "apps/registry.hpp"
#include "core/runner.hpp"
#include "harness/cli.hpp"
#include "harness/job_pool.hpp"
#include "harness/sweep.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using perfbench::median;
using perfbench::Point;
using perfbench::Span;
using perfbench::Workload;
using svmsim::Cycles;
using svmsim::RunResult;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_epoch = Clock::now();

double since_epoch() {
  return std::chrono::duration<double>(Clock::now() - g_epoch).count();
}

double cpu_clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Stable small ids for the pool's worker threads, in order of first use.
int worker_id() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1);
  return id;
}

/// FNV-1a over the simulated results, the identity a host-only change must
/// keep.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  }
  template <typename T>
  void add(const T& v) {
    static_assert(std::has_unique_object_representations_v<T>,
                  "hash only types without padding");
    bytes(&v, sizeof v);
  }
};

std::uint64_t digest_of(const RunResult& r, Cycles uniprocessor) {
  Fnv1a f;
  f.add(r.time);
  f.add(r.events);
  f.add(static_cast<std::uint8_t>(r.validated));
  f.add(uniprocessor);
  for (int p = 0; p < r.stats.procs(); ++p) f.add(r.stats.proc(p));
  f.add(r.stats.counters());
  for (const svmsim::LinkUse& l : r.stats.links()) {
    f.add(l.id);
    f.add(l.owner);
    f.add(l.kind);
    f.add(l.grants);
    f.add(l.busy);
    f.add(l.wait);
    f.add(l.bytes);
  }
  return f.h;
}

std::uint64_t digest_of(const std::string& failure) {
  Fnv1a f;
  f.bytes(failure.data(), failure.size());
  return f.h;
}

/// Simulated statistics summed over a workload's completed points.
struct LayerSums {
  std::map<std::string, std::uint64_t> v;

  void add(const RunResult& r) {
    using svmsim::TimeCat;
    const svmsim::Breakdown b = r.stats.aggregate();
    const svmsim::Counters& c = r.stats.counters();
    v["engine.events"] += r.events;
    v["core.sim_cycles"] += r.time;
    v["apps.compute_cycles"] += b.get(TimeCat::kCompute);
    v["memsys.stall_cycles"] +=
        b.get(TimeCat::kMemStall) + b.get(TimeCat::kWriteBufStall);
    v["svm.page_faults"] += c.page_faults;
    v["svm.page_fetches"] += c.page_fetches;
    v["svm.invalidations"] += c.invalidations;
    v["svm.diffs"] += c.diffs_created;
    v["svm.write_notices"] += c.write_notices;
    v["svm.remote_lock_acquires"] += c.remote_lock_acquires;
    v["svm.updates"] += c.updates_sent;
    v["svm.data_wait_cycles"] += b.get(TimeCat::kDataWait);
    v["svm.lock_wait_cycles"] += b.get(TimeCat::kLockWait);
    v["svm.barrier_wait_cycles"] += b.get(TimeCat::kBarrierWait);
    v["svm.protocol_cycles"] +=
        b.get(TimeCat::kProtocol) + b.get(TimeCat::kHandler);
    v["net.messages"] += c.messages_sent;
    v["net.packets"] += c.packets_sent;
    v["net.bytes"] += c.bytes_sent;
    v["net.interrupts"] += c.interrupts;
    v["net.ni_overflows"] += c.ni_queue_overflows;
    std::uint64_t grants = 0;
    std::uint64_t busy = 0;
    std::uint64_t wait = 0;
    for (const svmsim::LinkUse& l : r.stats.links()) {
      grants += l.grants;
      busy += l.busy;
      wait += l.wait;
    }
    v["topo.link_grants"] += grants;
    v["topo.link_busy_cycles"] += busy;
    v["topo.link_wait_cycles"] += wait;
  }
};

/// What one point produced. The timestamps are filled only when traced.
struct Outcome {
  bool ok = false;
  std::string reason;  ///< why the point failed
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  double run_cpu_s = 0;  ///< thread CPU time inside svmsim::run
  std::optional<RunResult> result;  ///< absent when the run threw
  int worker = 0;
  double start_s = 0, run_start_s = 0, run_end_s = 0, end_s = 0;
};

struct Pass {
  double submit_s = 0;  ///< when the batch was handed to the pool
  double wall_s = 0;
  double cpu_s = 0;     ///< process CPU time
  std::vector<Outcome> outcomes;  ///< by point id
};

void run_point(const Workload& wl, svmsim::harness::Sweep& sweep,
               std::size_t id, bool traced, Outcome& o) {
  const Point& p = wl.points[id];
  if (traced) {
    o.worker = worker_id();
    o.start_s = since_epoch();
  }
  try {
    const Cycles uni = sweep.baseline(p.app, p.cfg);  // cached by the set-up
    auto app = svmsim::apps::make_app(p.app, wl.scale);
    if (traced) o.run_start_s = since_epoch();
    const double cpu0 = cpu_clock_s(CLOCK_THREAD_CPUTIME_ID);
    o.result = svmsim::run(*app, p.cfg);
    o.run_cpu_s = cpu_clock_s(CLOCK_THREAD_CPUTIME_ID) - cpu0;
    if (traced) o.run_end_s = since_epoch();
    o.events = o.result->events;
    o.digest = digest_of(*o.result, uni);
    o.ok = o.result->validated;
    if (!o.ok) o.reason = "failed validate()";
  } catch (const std::exception& e) {
    o.reason = e.what();
    o.digest = digest_of(o.reason);
  }
  if (traced) {
    o.end_s = since_epoch();
    if (o.run_start_s > 0 && o.run_end_s == 0) o.run_end_s = o.end_s;
  }
}

Pass run_pass(const Workload& wl, svmsim::harness::Sweep& sweep,
              svmsim::harness::JobPool& pool,
              const std::vector<std::size_t>& order, bool traced) {
  Pass pass;
  pass.outcomes.resize(wl.points.size());
  std::vector<svmsim::harness::JobPool::Job> jobs;
  jobs.reserve(order.size());
  for (std::size_t id : order) {
    jobs.push_back([&wl, &sweep, &pass, id, traced] {
      run_point(wl, sweep, id, traced, pass.outcomes[id]);
    });
  }
  const double cpu0 = cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID);
  pass.submit_s = since_epoch();
  pool.run(std::move(jobs));
  pass.wall_s = since_epoch() - pass.submit_s;
  pass.cpu_s = cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
  return pass;
}

/// One computation of the workload's distinct uniprocessor baselines.
struct Setup {
  double wall_s = 0;
  std::vector<Span> spans;
  std::vector<std::string> values;  ///< baseline time or failure, per key
};

/// One point per distinct baseline. Sweep caches baselines per (app, page
/// size, protocol); other communication parameters do not matter on one
/// processor.
std::vector<const Point*> baseline_points(const Workload& wl) {
  std::set<std::tuple<std::string, std::uint32_t, svmsim::Protocol>> seen;
  std::vector<const Point*> out;
  for (const Point& p : wl.points) {
    if (seen.emplace(p.app, p.cfg.comm.page_bytes, p.cfg.comm.protocol)
            .second) {
      out.push_back(&p);
    }
  }
  return out;
}

Setup run_setup(const std::vector<const Point*>& keys,
                svmsim::harness::Sweep& sweep,
                svmsim::harness::JobPool& pool) {
  Setup s;
  s.spans.resize(keys.size());
  s.values.resize(keys.size());
  std::vector<svmsim::harness::JobPool::Job> jobs;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    jobs.push_back([&s, &sweep, &keys, i] {
      Span& span = s.spans[i];
      span.name = "harness.baseline";
      span.worker = worker_id();
      span.app = keys[i]->app;
      const svmsim::CommParams& comm = keys[i]->cfg.comm;
      span.param = "page_bytes=" + std::to_string(comm.page_bytes) +
                   " protocol=" + svmsim::to_string(comm.protocol);
      span.start_s = since_epoch();
      try {
        s.values[i] =
            std::to_string(sweep.baseline(keys[i]->app, keys[i]->cfg));
      } catch (const std::exception& e) {
        s.values[i] = std::string("failed: ") + e.what();
      }
      span.end_s = since_epoch();
    });
  }
  const double t0 = since_epoch();
  pool.run(std::move(jobs));
  s.wall_s = since_epoch() - t0;
  return s;
}

/// Submission order: the point ids, shuffled (Fisher-Yates) when `seed` is
/// set.
std::vector<std::size_t> submission_order(std::size_t n,
                                          std::optional<std::uint64_t> seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  if (!seed) return order;
  std::uint64_t s = *seed * 0x9e3779b97f4a7c15ull + 0x632be59bd9b4e019ull;
  for (std::size_t i = n; i > 1; --i) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    std::swap(order[i - 1], order[s % i]);
  }
  return order;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("\n%-28s %20s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-28s %20.12g  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Points attempted and failed over every pass, and whether the outputs are
/// right: no point failed validate() and every pass reproduced the first one
/// point by point (a point that differs counts as failed).
struct Tally {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t sim_digest = 0;  ///< over the first pass, in point order
};

Tally check_passes(const Workload& wl, const std::vector<const Pass*>& passes) {
  Tally t;
  const Pass& ref = *passes.front();
  for (std::size_t k = 0; k < passes.size(); ++k) {
    for (std::size_t id = 0; id < wl.points.size(); ++id) {
      const Outcome& o = passes[k]->outcomes[id];
      const Point& p = wl.points[id];
      ++t.attempted;
      const bool mismatch = o.digest != ref.outcomes[id].digest;
      if (!o.ok || mismatch) ++t.failed;
      if (mismatch) {
        t.correct = false;
        std::printf("mismatch: workload=%s app=%s %s %s: pass %zu differs "
                    "from pass 0\n",
                    wl.name.c_str(), p.app.c_str(), p.source.c_str(),
                    p.param.c_str(), k);
      }
      if (!o.ok && o.result) t.correct = false;  // ran, but computed wrong
      if (!o.ok && k == 0) {
        std::printf("failed: workload=%s app=%s %s %s reason=%s\n",
                    wl.name.c_str(), p.app.c_str(), p.source.c_str(),
                    p.param.c_str(), o.reason.c_str());
      }
    }
  }
  Fnv1a f;
  for (const Outcome& o : ref.outcomes) f.add(o.digest);
  t.sim_digest = f.h;
  return t;
}

/// Medians over the untraced passes.
std::vector<Metric> end_to_end_metrics(const std::vector<Pass>& passes,
                                       const std::vector<double>& setup_cpus,
                                       const Tally& tally) {
  std::vector<double> walls, cpus, eps;
  for (const Pass& p : passes) {
    double ev = 0, cpu = 0;
    for (const Outcome& o : p.outcomes) {
      if (!o.ok) continue;
      ev += static_cast<double>(o.events);
      cpu += o.run_cpu_s;
    }
    walls.push_back(p.wall_s);
    cpus.push_back(p.cpu_s);
    eps.push_back(cpu > 0 ? ev / cpu : 0);
    std::printf("pass %zu: wall_s=%.4f cpu_s=%.4f sim_eps=%.6g\n",
                walls.size() - 1, walls.back(), cpus.back(), eps.back());
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {
      {"wall_s", median(walls), "s"},
      {"cpu_s", median(cpus), "s"},
      {"sim_eps", median(eps), "1/s"},
      {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
      {"setup_s", median(setup_cpus), "s"},
      {"completed_frac",
       1.0 - static_cast<double>(tally.failed) /
                 static_cast<double>(tally.attempted),
       "fraction"},
  };
}

/// The first traced pass's spans (appended to `spans`), self times and
/// simulated statistics, and the tracing overhead: median traced over median
/// untraced pass wall time.
std::vector<Metric> per_layer_metrics(const Workload& wl,
                                      const std::vector<Pass>& untraced_passes,
                                      const std::vector<Pass>& traced_passes,
                                      unsigned jobs, std::vector<Span>& spans) {
  const Pass& traced = traced_passes.front();
  LayerSums sums;
  double busy = 0, queue = 0, run_s = 0, events = 0;
  for (std::size_t id = 0; id < wl.points.size(); ++id) {
    const Outcome& o = traced.outcomes[id];
    const Point& p = wl.points[id];
    const int pid = static_cast<int>(id);
    spans.push_back({"harness.queue", traced.submit_s, o.start_s, -1, o.worker,
                     pid, p.app, p.param, 0});
    spans.push_back({"point", o.start_s, o.end_s, -1, o.worker, pid, p.app,
                     p.source + " " + p.param, o.events});
    if (o.run_start_s > 0) {
      spans.push_back({"sim.run", o.run_start_s, o.run_end_s,
                       static_cast<int>(spans.size()) - 1, o.worker, pid,
                       p.app, p.param, o.events});
    }
    busy += o.end_s - o.start_s;
    queue += o.start_s - traced.submit_s;
    if (o.ok) {
      sums.add(*o.result);
      run_s += o.run_end_s - o.run_start_s;
      events += static_cast<double>(o.events);
    }
  }
  const std::map<std::string, perfbench::SelfTime> self =
      perfbench::self_times(spans);
  std::printf("\n%-18s %8s %12s %12s\n", "span", "count", "total_s", "self_s");
  for (const auto& [name, t] : self) {
    std::printf("%-18s %8llu %12.4f %12.4f\n", name.c_str(),
                static_cast<unsigned long long>(t.count), t.total_s, t.self_s);
  }
  std::vector<double> untraced_walls, traced_walls;
  for (const Pass& p : untraced_passes) untraced_walls.push_back(p.wall_s);
  for (const Pass& p : traced_passes) traced_walls.push_back(p.wall_s);
  const double ratio = median(traced_walls) / median(untraced_walls);
  std::printf("traced passes %.4f s vs untraced %.4f s (medians of %zu): "
              "overhead %+.2f%%\n",
              median(traced_walls), median(untraced_walls),
              traced_walls.size(), (ratio - 1.0) * 100.0);

  std::vector<Metric> metrics;
  for (const auto& [key, value] : sums.v) {
    const char* unit = key.find("cycles") != std::string::npos ? "cycles"
                       : key == "net.bytes"                    ? "bytes"
                                                               : "count";
    metrics.push_back({key, static_cast<double>(value), unit});
  }
  const double faults = static_cast<double>(sums.v["svm.page_faults"]);
  const double fetches = static_cast<double>(sums.v["svm.page_fetches"]);
  metrics.insert(metrics.end(), {
      {"svm.fetch_per_fault", faults > 0 ? fetches / faults : 0, "ratio"},
      {"harness.queue_wait_s",
       queue / static_cast<double>(wl.points.size()), "s"},
      {"harness.pool_idle_frac",
       1.0 - busy / (static_cast<double>(jobs) * traced.wall_s), "fraction"},
      {"harness.baseline_s", self.at("harness.baseline").self_s, "s"},
      {"sim.run_s", run_s, "s"},
      {"sim.ns_per_event", events > 0 ? run_s * 1e9 / events : 0, "ns"},
      {"point.self_s", self.at("point").self_s, "s"},
      {"trace.wall_ratio", ratio, "ratio"},
  });
  return metrics;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "svmbench: %s\nusage: svmbench --workload=paper-small|"
               "regular-large|cluster-256 --seed=N --seconds=S --trace=0|1 "
               "[--spans=PATH]\n",
               why);
  return 2;
}

constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 2000;
constexpr double kSetupBudgetS = 1.0;  ///< keep repeating tiny set-ups

}  // namespace

int main(int argc, char** argv) {
  svmsim::harness::Cli cli(argc, argv);
  const std::string name = cli.get_or("workload", "");
  const long seed = cli.get_int("seed", -1);
  const double seconds = cli.get_double("seconds", 0);
  const long trace = cli.get_int("trace", -1);
  const std::string spans_path = cli.get_or("spans", "");
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), name) == names.end()) {
    return usage("unknown or missing --workload");
  }
  if (seed < 0) return usage("--seed must be a non-negative integer");
  if (!(seconds > 0)) return usage("--seconds must be positive");
  if (trace != 0 && trace != 1) return usage("--trace must be 0 or 1");
  const bool traced = trace == 1;

  const Workload wl =
      perfbench::make_workload(name, static_cast<std::uint64_t>(seed));
  const unsigned jobs =
      std::min(4u, svmsim::harness::JobPool::hardware_default());
  svmsim::harness::JobPool pool(jobs);
  const std::vector<std::size_t> order =
      submission_order(wl.points.size(), wl.shuffle_seed);
  std::printf(
      "svmbench: workload=%s seed=%ld points=%zu workers=%u trace=%ld\n",
      name.c_str(), seed, wl.points.size(), jobs, trace);

  bool correct = true;

  // Set-up: the distinct baselines on a fresh Sweep each time; the last
  // Sweep's cache serves the passes. setup_s is the set-up's process CPU
  // time: cluster-256's set-up takes about a millisecond of wall time, most
  // of it the pool's hand-off latency, which swung 2x between minutes on a
  // shared host while the CPU time held.
  const std::vector<const Point*> keys = baseline_points(wl);
  std::unique_ptr<svmsim::harness::Sweep> sweep;
  std::vector<double> setup_walls;
  std::vector<double> setup_cpus;
  Setup setup;
  double setup_total = 0;
  while (setup_walls.size() < static_cast<std::size_t>(kMinSetups) ||
         (setup_total < kSetupBudgetS &&
          setup_walls.size() < static_cast<std::size_t>(kMaxSetups))) {
    const double cpu0 = cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID);
    sweep = std::make_unique<svmsim::harness::Sweep>(wl.scale);
    Setup s = run_setup(keys, *sweep, pool);
    setup_cpus.push_back(cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID) - cpu0);
    setup_walls.push_back(s.wall_s);
    setup_total += s.wall_s;
    if (setup_walls.size() > 1 && s.values != setup.values) {
      std::printf("mismatch: baselines differ between set-ups\n");
      correct = false;
    }
    setup = std::move(s);
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (setup.values[i].rfind("failed", 0) == 0) {
      std::printf("baseline %s %s: %s\n", keys[i]->app.c_str(),
                  setup.spans[i].param.c_str(), setup.values[i].c_str());
    }
  }

  // Passes: untraced ones, each followed by a traced one when tracing, for
  // about `seconds` in all and at least one of each.
  std::vector<Pass> passes;
  std::vector<Pass> traced_passes;
  const double t0 = since_epoch();
  double last_s = 0;
  do {
    passes.push_back(run_pass(wl, *sweep, pool, order, false));
    last_s = passes.back().wall_s;
    if (traced) {
      traced_passes.push_back(run_pass(wl, *sweep, pool, order, true));
      last_s += traced_passes.back().wall_s;
    }
  } while (since_epoch() - t0 + last_s <= seconds);

  std::vector<const Pass*> checked;
  for (const Pass& p : passes) checked.push_back(&p);
  for (const Pass& p : traced_passes) checked.push_back(&p);
  const Tally tally = check_passes(wl, checked);
  correct = correct && tally.correct;
  std::printf("sim_digest=%016llx passes=%zu\n",
              static_cast<unsigned long long>(tally.sim_digest), passes.size());
  std::printf("setups=%zu median wall=%.6g s cpu=%.6g s\n",
              setup_walls.size(), median(setup_walls), median(setup_cpus));
  std::printf("failed_frac=%.6g (%llu of %llu points)\n",
              static_cast<double>(tally.failed) /
                  static_cast<double>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));

  std::vector<Metric> metrics;
  if (!traced) {
    metrics = end_to_end_metrics(passes, setup_cpus, tally);
  } else {
    std::vector<Span> spans = setup.spans;
    metrics = per_layer_metrics(wl, passes, traced_passes, jobs, spans);
    if (!spans_path.empty()) {
      if (!perfbench::write_chrome_trace(spans_path, spans)) {
        std::fprintf(stderr, "svmbench: cannot write %s\n", spans_path.c_str());
        return 1;
      }
      std::printf("spans: %zu written to %s\n", spans.size(),
                  spans_path.c_str());
    }
    const perfbench::ProbeResult pr =
        perfbench::run_probes(wl, static_cast<std::uint64_t>(seed));
    metrics.insert(metrics.end(), {
        {"memsys.lookup_ns", pr.memsys_lookup_ns, "ns"},
        {"memsys.invalidate_page_ns", pr.memsys_invalidate_page_ns, "ns"},
        {"engine.event_ns", pr.engine_event_ns, "ns"},
        {"svm.vclock_merge_ns", pr.svm_vclock_merge_ns, "ns"},
        {"svm.diff_page_ns", pr.svm_diff_page_ns, "ns"},
        {"core.build_us", pr.core_build_us, "us"},
        {"apps.setup_us", pr.apps_setup_us, "us"},
    });
  }
  print_result(correct, tally.attempted, tally.failed, metrics);
  return 0;
}
