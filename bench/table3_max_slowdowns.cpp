// Table 3: maximum slowdowns with respect to each communication parameter
// over the experimental range (negative numbers indicate speedups).
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace svmsim;
  auto opt = bench::Options::parse(argc, argv);
  harness::Sweep sweep(opt.scale);

  struct Param {
    const char* name;
    std::vector<double> endpoints;  // best-first, worst-last
    std::function<void(SimConfig&, double)> apply;
  };
  const std::vector<Param> params = {
      {"host overhead",
       {0, 2000},
       [](SimConfig& c, double v) {
         c.comm.host_overhead = static_cast<Cycles>(v);
       }},
      {"NI occupancy",
       {0, 4000},
       [](SimConfig& c, double v) {
         c.comm.ni_occupancy = static_cast<Cycles>(v);
       }},
      {"I/O bandwidth",
       {2.0, 0.125},
       [](SimConfig& c, double v) { c.comm.io_bus_mb_per_mhz = v; }},
      {"interrupt cost",
       {0, 5000},
       [](SimConfig& c, double v) {
         c.comm.interrupt_cost = static_cast<Cycles>(v);
       }},
      {"page size",
       {1024, 16384},
       [](SimConfig& c, double v) {
         c.comm.page_bytes = static_cast<std::uint32_t>(v);
       }},
      {"procs/node",
       {1, 8},
       [](SimConfig& c, double v) {
         c.comm.procs_per_node = static_cast<int>(v);
       }},
  };

  std::vector<std::string> header{"application"};
  for (const auto& p : params) header.emplace_back(p.name);
  harness::Table t(header);

  // One flat batch: every (app, parameter, endpoint) point is independent.
  std::vector<harness::SweepPoint> points;
  for (const auto& app : opt.app_names) {
    for (const auto& p : params) {
      for (double v : p.endpoints) {
        harness::SweepPoint pt{app, bench::base_config(), v};
        p.apply(pt.cfg, v);
        points.push_back(std::move(pt));
      }
    }
  }
  bench::apply_options(points, opt);
  auto all = bench::run_points(sweep, points, opt, "endpoint");

  auto it = all.begin();
  for (const auto& app : opt.app_names) {
    std::vector<std::string> row{app};
    for (const auto& p : params) {
      std::vector<harness::AppRun> runs(
          std::make_move_iterator(it),
          std::make_move_iterator(
              it + static_cast<std::ptrdiff_t>(p.endpoints.size())));
      it += static_cast<std::ptrdiff_t>(p.endpoints.size());
      row.push_back(harness::fmt(harness::max_slowdown_pct(runs), 1) + "%");
      std::fprintf(stderr, ".");
      std::fflush(stderr);
    }
    t.add_row(std::move(row));
  }
  std::fprintf(stderr, "\n");
  std::printf(
      "== Table 3: max slowdown between range endpoints per parameter ==\n");
  t.print();
  harness::maybe_write_csv(t, opt.csv_dir, "table3");
  return 0;
}
