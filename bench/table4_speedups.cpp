// Table 4: best, achievable and ideal speedups for each application.
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace svmsim;
  auto opt = bench::Options::parse(argc, argv);
  harness::Sweep sweep(opt.scale);

  SimConfig best_cfg = bench::base_config();
  best_cfg.comm = CommParams::best();
  std::vector<harness::SweepPoint> points;
  for (const auto& app : opt.app_names) {
    points.push_back({app, best_cfg, 0});
    points.push_back({app, bench::base_config(), 1});
  }
  bench::apply_options(points, opt);
  auto runs = bench::run_points(sweep, points, opt, "achievable");

  harness::Table t({"application", "best", "achievable", "ideal"});
  for (std::size_t i = 0; i < opt.app_names.size(); ++i) {
    const auto& best = runs[2 * i];
    const auto& ach = runs[2 * i + 1];
    t.add_row({opt.app_names[i], harness::fmt(best.speedup()),
               harness::fmt(ach.speedup()), harness::fmt(ach.ideal_speedup())});
    std::fprintf(stderr, ".");
    std::fflush(stderr);
  }
  std::fprintf(stderr, "\n");
  std::printf("== Table 4: best / achievable / ideal speedups ==\n");
  t.print();
  harness::maybe_write_csv(t, opt.csv_dir, "table4");
  return 0;
}
