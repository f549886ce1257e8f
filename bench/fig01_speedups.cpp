// Figure 1: ideal and realistic (achievable) speedups for each application,
// on 16 processors with 4 per node.
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace svmsim;
  auto opt = bench::Options::parse(argc, argv);
  harness::Sweep sweep(opt.scale);

  std::vector<harness::SweepPoint> points;
  for (const auto& app : opt.app_names) {
    points.push_back({app, bench::base_config(), 0});
  }
  bench::apply_options(points, opt);
  auto runs = bench::run_points(sweep, points, opt, "point");

  harness::Table t({"application", "achievable speedup", "ideal speedup"});
  for (const auto& run : runs) {
    t.add_row({run.app, harness::fmt(run.speedup()),
               harness::fmt(run.ideal_speedup())});
    std::fprintf(stderr, ".");
    std::fflush(stderr);
  }
  std::fprintf(stderr, "\n");
  std::printf(
      "== Figure 1: ideal vs achievable speedups (16 procs, 4/node) ==\n");
  t.print();
  harness::maybe_write_csv(t, opt.csv_dir, "fig01");
  return 0;
}
