#include "workloads.hpp"

#include <cstdio>
#include <stdexcept>

#include "apps/registry.hpp"

namespace perfbench {

namespace {

using svmsim::Cycles;
using svmsim::SimConfig;

/// One swept communication parameter: its name in point labels and how a
/// value is written into a configuration.
struct Param {
  const char* name;
  void (*apply)(SimConfig&, double);
};

const Param kOverhead{"host_overhead", [](SimConfig& c, double v) {
                        c.comm.host_overhead = static_cast<Cycles>(v);
                      }};
const Param kOccupancy{"ni_occupancy", [](SimConfig& c, double v) {
                         c.comm.ni_occupancy = static_cast<Cycles>(v);
                       }};
const Param kIoBandwidth{"io_bus_mb_per_mhz", [](SimConfig& c, double v) {
                           c.comm.io_bus_mb_per_mhz = v;
                         }};
const Param kInterrupt{"interrupt_cost", [](SimConfig& c, double v) {
                         c.comm.interrupt_cost = static_cast<Cycles>(v);
                       }};
const Param kPageSize{"page_bytes", [](SimConfig& c, double v) {
                        c.comm.page_bytes = static_cast<std::uint32_t>(v);
                      }};
const Param kProcsPerNode{"procs_per_node", [](SimConfig& c, double v) {
                            c.comm.procs_per_node = static_cast<int>(v);
                          }};
const Param kAurcOccupancy{"aurc_ni_occupancy", [](SimConfig& c, double v) {
                             c.comm.protocol = svmsim::Protocol::kAURC;
                             c.comm.ni_occupancy = static_cast<Cycles>(v);
                           }};

/// The paper's default machine at the achievable point (16 processors,
/// 4 per node, HLRC, 4 KB pages).
SimConfig achievable() {
  SimConfig cfg;
  cfg.comm = svmsim::CommParams::achievable();
  return cfg;
}

std::string label(const Param& p, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s=%g", p.name, v);
  return buf;
}

/// Append `apps` x `values` in the row-major order the figure binaries use.
void add_sweep(std::vector<Point>& out, const std::vector<std::string>& apps,
               const SimConfig& base, const char* source, const Param& p,
               const std::vector<double>& values) {
  for (const auto& app : apps) {
    for (double v : values) {
      Point pt{app, base, source, label(p, v)};
      p.apply(pt.cfg, v);
      out.push_back(std::move(pt));
    }
  }
}

/// Every point the fig01-fig14 and table2-table4 binaries request, with
/// their repeats (fig06/09/11 and table3 re-run sweep endpoints, table4
/// re-runs fig01, fig03/fig04/table2 share their points).
std::vector<Point> paper_points() {
  const std::vector<std::string>& suite = svmsim::apps::suite();
  const SimConfig base = achievable();
  std::vector<Point> pts;
  for (const auto& app : suite) {
    pts.push_back({app, base, "fig01", "comm=achievable"});
  }
  add_sweep(pts, suite, base, "fig03", kProcsPerNode, {1, 4, 8});
  add_sweep(pts, suite, base, "fig04", kProcsPerNode, {1, 4, 8});
  add_sweep(pts, suite, base, "fig05", kOverhead, {0, 250, 500, 1000, 2000});
  add_sweep(pts, suite, base, "fig06", kOverhead, {0, 2000});
  add_sweep(pts, suite, base, "fig07", kOccupancy,
            {0, 250, 500, 1000, 2000, 4000});
  add_sweep(pts, suite, base, "fig08", kIoBandwidth,
            {2.0, 1.0, 0.5, 0.25, 0.125});
  add_sweep(pts, suite, base, "fig09", kIoBandwidth, {2.0, 0.125});
  add_sweep(pts, suite, base, "fig10", kInterrupt,
            {0, 250, 500, 1000, 2500, 5000});
  add_sweep(pts, suite, base, "fig11", kInterrupt, {0, 5000});
  add_sweep(pts, suite, base, "fig12", kAurcOccupancy,
            {0, 250, 500, 1000, 2000, 4000});
  add_sweep(pts, suite, base, "fig13", kPageSize,
            {1024, 2048, 4096, 8192, 16384});
  add_sweep(pts, suite, base, "fig14", kProcsPerNode, {1, 2, 4, 8});
  add_sweep(pts, suite, base, "table2", kProcsPerNode, {1, 4, 8});
  // table3 interleaves its six parameters per application.
  for (const auto& app : suite) {
    const std::vector<std::string> one{app};
    add_sweep(pts, one, base, "table3", kOverhead, {0, 2000});
    add_sweep(pts, one, base, "table3", kOccupancy, {0, 4000});
    add_sweep(pts, one, base, "table3", kIoBandwidth, {2.0, 0.125});
    add_sweep(pts, one, base, "table3", kInterrupt, {0, 5000});
    add_sweep(pts, one, base, "table3", kPageSize, {1024, 16384});
    add_sweep(pts, one, base, "table3", kProcsPerNode, {1, 8});
  }
  SimConfig best = base;
  best.comm = svmsim::CommParams::best();
  for (const auto& app : suite) {
    pts.push_back({app, best, "table4", "comm=best"});
    pts.push_back({app, base, "table4", "comm=achievable"});
  }
  return pts;
}

/// The HLRC fig05/07/08/10 sweeps and the AURC fig12 sweep of the regular
/// applications at large scale.
std::vector<Point> regular_large_points() {
  const std::vector<std::string> apps = {"fft", "lu", "ocean", "radix"};
  const SimConfig base = achievable();
  std::vector<Point> pts;
  add_sweep(pts, apps, base, "fig05", kOverhead, {0, 250, 500, 1000, 2000});
  add_sweep(pts, apps, base, "fig07", kOccupancy,
            {0, 250, 500, 1000, 2000, 4000});
  add_sweep(pts, apps, base, "fig08", kIoBandwidth,
            {2.0, 1.0, 0.5, 0.25, 0.125});
  add_sweep(pts, apps, base, "fig10", kInterrupt,
            {0, 250, 500, 1000, 2500, 5000});
  add_sweep(pts, apps, base, "fig12", kAurcOccupancy,
            {0, 250, 500, 1000, 2000, 4000});
  return pts;
}

constexpr int kClusterProcs = 256;

/// stress-gen programs per cluster-256 run. One program is 15 points of
/// about a second each: four workers pack them unevenly, and programs differ
/// in work, so one program's wall time spread 14% across seeds. Four
/// programs average both out.
constexpr std::uint64_t kClusterPrograms = 4;

/// stress-gen on 64 nodes under HLRC, on three interconnects, at the
/// achievable point and with each Table-1 parameter alone at its best value.
void add_cluster_points(std::vector<Point>& pts, const std::string& app) {
  SimConfig base = achievable();
  base.comm.total_procs = kClusterProcs;
  const svmsim::CommParams best = svmsim::CommParams::best();
  for (const char* topo : {"legacy", "fattree:8", "torus:8x8"}) {
    SimConfig cfg = base;
    cfg.topology = *svmsim::topo::Spec::parse(topo);
    const std::string source = std::string("topology=") + topo;
    pts.push_back({app, cfg, source, "comm=achievable"});
    const std::vector<std::pair<const Param*, double>> singles = {
        {&kOverhead, static_cast<double>(best.host_overhead)},
        {&kIoBandwidth, best.io_bus_mb_per_mhz},
        {&kOccupancy, static_cast<double>(best.ni_occupancy)},
        {&kInterrupt, static_cast<double>(best.interrupt_cost)},
    };
    for (const auto& [p, v] : singles) {
      Point pt{app, cfg, source, label(*p, v)};
      p->apply(pt.cfg, v);
      pts.push_back(std::move(pt));
    }
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"paper-small",
                                                  "regular-large",
                                                  "cluster-256"};
  return kNames;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.probe_cfg = achievable();
  if (name == "paper-small") {
    w.scale = svmsim::apps::Scale::kSmall;
    w.points = paper_points();
    w.shuffle_seed = seed;
    w.probe_apps = svmsim::apps::suite();
  } else if (name == "regular-large") {
    w.scale = svmsim::apps::Scale::kLarge;
    w.points = regular_large_points();
    w.shuffle_seed = seed;
    w.probe_apps = {"fft", "lu", "ocean", "radix"};
  } else if (name == "cluster-256") {
    w.scale = svmsim::apps::Scale::kSmall;
    for (std::uint64_t i = 0; i < kClusterPrograms; ++i) {
      const std::string app =
          "stress-gen@" + std::to_string(kClusterPrograms * seed + i);
      add_cluster_points(w.points, app);
      w.probe_apps.push_back(app);
    }
    w.probe_cfg = w.points.front().cfg;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

}  // namespace perfbench
