#include "bench_common.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>

namespace svmsim::bench {

Options Options::parse(int argc, char** argv) {
  harness::Cli cli(argc, argv);
  Options opt;
  opt.prog = argc > 0 ? argv[0] : "bench";
  const std::string scale = cli.get_or("scale", "small");
  if (scale == "tiny") {
    opt.scale = apps::Scale::kTiny;
  } else if (scale == "large") {
    opt.scale = apps::Scale::kLarge;
  } else {
    opt.scale = apps::Scale::kSmall;
  }
  opt.csv_dir = cli.get_or("csv", "");
  if (auto apps_arg = cli.get("apps")) {
    std::stringstream ss(*apps_arg);
    std::string item;
    while (std::getline(ss, item, ',')) {
      if (!item.empty()) opt.app_names.push_back(item);
    }
  } else {
    opt.app_names = apps::suite();
  }
  opt.trace.path = cli.get_or("trace", "");
  opt.trace.enabled = !opt.trace.path.empty();
  if (auto cats = cli.get("trace-categories")) {
    if (auto mask = trace::parse_mask(*cats)) {
      opt.trace.mask = *mask;
    } else {
      std::fprintf(stderr,
                   "unknown --trace-categories value '%s' "
                   "(expected a comma list of page,lock,net,irq,sched)\n",
                   cats->c_str());
      std::exit(2);
    }
  }
  opt.check.enabled = cli.has("check-consistency");
  if (auto t = cli.get("topology")) {
    if (auto spec = topo::Spec::parse(*t)) {
      opt.topology = *spec;
    } else {
      std::fprintf(stderr,
                   "%s: unknown --topology value '%s' (expected legacy, "
                   "crossbar, fattree:<even k in [2,64]>, or "
                   "torus:<X>x<Y>[x<Z>] with positive dimensions)\n",
                   opt.prog.c_str(), t->c_str());
      std::exit(kExitBadTopology);
    }
  }
  // Architecture overrides are validated here, at parse time, with the same
  // check the Machine constructor applies — the bench exits kExitBadArch
  // instead of dying on the constructor's throw mid-sweep.
  opt.arch = SimConfig{}.arch;
  opt.arch.link_bytes_per_cycle =
      cli.get_double("link-bytes-per-cycle", opt.arch.link_bytes_per_cycle);
  opt.arch.wire_latency_cycles = static_cast<Cycles>(cli.get_int(
      "wire-latency", static_cast<long>(opt.arch.wire_latency_cycles)));
  if (const std::string err = opt.arch.validate(); !err.empty()) {
    std::fprintf(stderr, "%s: bad architecture parameter: %s\n",
                 opt.prog.c_str(), err.c_str());
    std::exit(kExitBadArch);
  }
  opt.jobs = static_cast<int>(cli.get_int(
      "jobs", static_cast<long>(harness::JobPool::hardware_default())));
  opt.jobs = std::max(1, opt.jobs);
  if (opt.jobs > 1) {
    opt.pool_ = std::make_shared<harness::JobPool>(
        static_cast<unsigned>(opt.jobs));
  }
  return opt;
}

int checked_total_procs(const char* argv0, const char* flag, long total,
                        int procs_per_node) {
  const char* prog = argv0 != nullptr ? argv0 : "bench";
  if (total <= 0 || total > kMaxTotalProcs) {
    std::fprintf(stderr,
                 "%s: %s=%ld is out of range: the simulated cluster must "
                 "have between 1 and %ld processors\n",
                 prog, flag, total, kMaxTotalProcs);
    std::exit(kExitBadProcs);
  }
  if (procs_per_node <= 0 || total % procs_per_node != 0) {
    std::fprintf(stderr,
                 "%s: %s=%ld is not a multiple of procs_per_node=%d: nodes "
                 "are whole, so the cluster size must be a positive multiple "
                 "of the processors per node\n",
                 prog, flag, total, procs_per_node);
    std::exit(kExitBadProcs);
  }
  return static_cast<int>(total);
}

void checked_topology(const char* argv0, const topo::Spec& spec, int nodes) {
  if (topo::fits(spec, nodes)) return;
  std::fprintf(stderr,
               "%s: --topology=%s does not fit a %d-node cluster: a fat "
               "tree of arity k hosts up to k^3/4 nodes and a torus needs "
               "its dimension product to equal the node count exactly\n",
               argv0 != nullptr ? argv0 : "bench", spec.to_string().c_str(),
               nodes);
  std::exit(kExitBadTopology);
}

SimConfig base_config() {
  SimConfig cfg;
  cfg.comm = CommParams::achievable();
  return cfg;
}

void apply_options(std::vector<harness::SweepPoint>& points,
                   const Options& opt, const std::string& batch) {
  const std::string trace_prefix =
      batch.empty() ? opt.trace.path : opt.trace.path + "." + batch;
  std::map<std::string, std::size_t> per_app;  // points seen so far
  for (harness::SweepPoint& p : points) {
    const std::size_t i = per_app[p.app]++;
    p.cfg.arch = opt.arch;
    p.cfg.topology = opt.topology;
    // The caller may have resized the cluster, so fit is checked per point.
    checked_topology(opt.prog.c_str(), p.cfg.topology,
                     p.cfg.comm.node_count());
    p.cfg.trace = opt.trace;
    if (opt.trace.enabled) {
      // Each point is its own Machine/run: give each its own trace file.
      p.cfg.trace.path = trace_prefix + "." + p.app + "-" + std::to_string(i);
    }
    p.cfg.check = opt.check;
    if (opt.check.enabled && opt.trace.enabled) {
      // A violating point dumps its trace for trace2chrome replay.
      p.cfg.check.trace_path = p.cfg.trace.path + ".violation";
    }
  }
}

std::vector<harness::SweepPoint> suite_points(
    const std::vector<double>& values,
    const std::function<void(SimConfig&, double)>& apply, const Options& opt) {
  std::vector<harness::SweepPoint> points;
  points.reserve(opt.app_names.size() * values.size());
  for (const auto& app : opt.app_names) {
    for (double v : values) {
      harness::SweepPoint p{app, base_config(), v};
      apply(p.cfg, v);
      points.push_back(std::move(p));
    }
  }
  apply_options(points, opt);
  return points;
}

std::vector<harness::AppRun> run_points(
    harness::Sweep& sweep, const std::vector<harness::SweepPoint>& points,
    const Options& opt, const std::string& param_name) {
  std::vector<harness::AppRun> runs;
  try {
    runs = sweep.run_points(points, opt.pool());
  } catch (const harness::PointError& e) {
    std::fprintf(stderr, "\n%s: %s %s=%g: %s\n", opt.prog.c_str(),
                 e.app().c_str(), param_name.c_str(), e.value(),
                 e.reason().c_str());
    std::exit(1);
  }
  // --check-consistency turns the bench into a pass/fail harness: any
  // violation (already reported per run on stderr) fails the process.
  std::uint64_t violations = 0;
  for (const auto& r : runs) violations += r.result.check_violations;
  if (violations > 0) {
    std::fprintf(stderr, "\n%s: consistency checker found %llu violation(s)\n",
                 opt.prog.c_str(),
                 static_cast<unsigned long long>(violations));
    std::exit(1);
  }
  return runs;
}

namespace {

/// printf onto the end of `out`.
[[gnu::format(printf, 2, 3)]] void appendf(std::string& out, const char* fmt,
                                           ...) {
  va_list ap;
  va_list again;
  va_start(ap, fmt);
  va_copy(again, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  if (n > 0) {
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data() + at, static_cast<std::size_t>(n) + 1, fmt,
                   again);
    out.resize(at + static_cast<std::size_t>(n));
  }
  va_end(again);
  va_end(ap);
}

}  // namespace

SweepDump sweep_dump(const SimConfig& base,
                     const std::vector<std::string>& apps) {
  std::vector<harness::SweepPoint> points;
  for (Protocol proto : {Protocol::kHLRC, Protocol::kAURC}) {
    for (const std::string& app : apps) {
      for (double overhead : {0.0, 1000.0}) {
        SimConfig cfg = base;
        cfg.comm.protocol = proto;
        cfg.comm.host_overhead = static_cast<Cycles>(overhead);
        points.push_back({app, cfg, overhead});
      }
    }
  }

  harness::Sweep sweep(apps::Scale::kTiny);
  const auto runs = sweep.run_points(points);

  SweepDump dump;
  std::string& out = dump.text;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    const auto& cfg = points[i].cfg;
    dump.violations += r.result.check_violations;
    appendf(out, "%s proto=%s host_overhead=%llu\n", r.app.c_str(),
            cfg.comm.protocol == Protocol::kAURC ? "aurc" : "hlrc",
            static_cast<unsigned long long>(cfg.comm.host_overhead));
    appendf(out, "  time=%llu events=%llu validated=%d uniprocessor=%llu\n",
            static_cast<unsigned long long>(r.result.time),
            static_cast<unsigned long long>(r.result.events),
            r.result.validated ? 1 : 0,
            static_cast<unsigned long long>(r.uniprocessor));
    const auto& st = r.result.stats;
    for (int p = 0; p < st.procs(); ++p) {
      appendf(out, "  proc%d:", p);
      for (int c = 0; c < kTimeCats; ++c) {
        appendf(out, " %llu", static_cast<unsigned long long>(
                                  st.proc(p).t[static_cast<std::size_t>(c)]));
      }
      out += '\n';
    }
    const auto& k = st.counters();
    appendf(
        out,
        "  faults=%llu/%llu/%llu fetches=%llu locks=%llu/%llu barriers=%llu\n",
        static_cast<unsigned long long>(k.page_faults),
        static_cast<unsigned long long>(k.read_faults),
        static_cast<unsigned long long>(k.write_faults),
        static_cast<unsigned long long>(k.page_fetches),
        static_cast<unsigned long long>(k.local_lock_acquires),
        static_cast<unsigned long long>(k.remote_lock_acquires),
        static_cast<unsigned long long>(k.barriers));
    appendf(out,
            "  msgs=%llu packets=%llu bytes=%llu interrupts=%llu "
            "polled=%llu\n",
            static_cast<unsigned long long>(k.messages_sent),
            static_cast<unsigned long long>(k.packets_sent),
            static_cast<unsigned long long>(k.bytes_sent),
            static_cast<unsigned long long>(k.interrupts),
            static_cast<unsigned long long>(k.polled_requests));
    appendf(out,
            "  twins=%llu diffs=%llu diff_bytes=%llu notices=%llu "
            "invals=%llu updates=%llu update_bytes=%llu overflows=%llu\n",
            static_cast<unsigned long long>(k.twins_created),
            static_cast<unsigned long long>(k.diffs_created),
            static_cast<unsigned long long>(k.diff_bytes),
            static_cast<unsigned long long>(k.write_notices),
            static_cast<unsigned long long>(k.invalidations),
            static_cast<unsigned long long>(k.updates_sent),
            static_cast<unsigned long long>(k.update_bytes),
            static_cast<unsigned long long>(k.ni_queue_overflows));
    // Contended-topology runs only (empty otherwise): one line per physical
    // link, so a diff also covers per-link occupancy state.
    for (const auto& l : st.links()) {
      appendf(out,
              "  link%d owner=%d kind=%d grants=%llu busy=%llu wait=%llu "
              "bytes=%llu\n",
              l.id, l.owner, static_cast<int>(l.kind),
              static_cast<unsigned long long>(l.grants),
              static_cast<unsigned long long>(l.busy),
              static_cast<unsigned long long>(l.wait),
              static_cast<unsigned long long>(l.bytes));
    }
  }
  return dump;
}

std::vector<std::vector<harness::AppRun>> run_figure(
    const std::string& figure, const std::string& param_name,
    const std::vector<double>& values,
    const std::function<void(SimConfig&, double)>& apply, const Options& opt,
    harness::Sweep& sweep,
    const std::function<std::string(double)>& value_label) {
  auto label = [&](double v) {
    return value_label ? value_label(v) : harness::fmt(v, 0);
  };

  std::vector<std::string> header{"application"};
  for (double v : values) header.push_back(param_name + "=" + label(v));
  harness::Table table(header);

  // One flat batch across the whole suite: with --jobs > 1 every
  // (app, value) point runs concurrently, not just the points of one app.
  std::vector<harness::AppRun> flat =
      run_points(sweep, suite_points(values, apply, opt), opt, param_name);

  std::vector<std::vector<harness::AppRun>> all;
  auto it = flat.begin();
  for (const auto& app : opt.app_names) {
    std::vector<harness::AppRun> runs(
        std::make_move_iterator(it),
        std::make_move_iterator(it + static_cast<std::ptrdiff_t>(values.size())));
    it += static_cast<std::ptrdiff_t>(values.size());
    std::vector<std::string> row{app};
    for (const auto& r : runs) row.push_back(harness::fmt(r.speedup()));
    table.add_row(std::move(row));
    all.push_back(std::move(runs));
    std::fprintf(stderr, ".");
    std::fflush(stderr);
  }
  std::fprintf(stderr, "\n");

  std::printf("== %s: speedup (16 processors) vs %s ==\n", figure.c_str(),
              param_name.c_str());
  table.print();
  harness::maybe_write_csv(table, opt.csv_dir, figure);
  return all;
}

void print_relation(const std::string& figure,
                    const std::string& slowdown_label,
                    const std::string& metric_label,
                    const std::vector<std::vector<harness::AppRun>>& sweeps,
                    const std::function<double(const harness::AppRun&)>& metric,
                    const Options& opt) {
  std::vector<double> slowdowns;
  std::vector<double> metrics;
  for (const auto& runs : sweeps) {
    slowdowns.push_back(std::max(0.0, harness::max_slowdown_pct(runs)));
    metrics.push_back(metric(runs.front()));
  }
  const double max_s = std::max(1e-12, *std::max_element(slowdowns.begin(),
                                                         slowdowns.end()));
  const double max_m =
      std::max(1e-12, *std::max_element(metrics.begin(), metrics.end()));

  harness::Table table({"application", slowdown_label, metric_label});
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    table.add_row({opt.app_names[i], harness::fmt(slowdowns[i] / max_s),
                   harness::fmt(metrics[i] / max_m)});
  }
  std::printf("== %s: normalized %s vs normalized %s ==\n", figure.c_str(),
              slowdown_label.c_str(), metric_label.c_str());
  table.print();
  harness::maybe_write_csv(table, opt.csv_dir, figure);
}

}  // namespace svmsim::bench
