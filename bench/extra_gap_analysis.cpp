// Paper §6 guided simulations: per-application gap analysis between
// achievable, best and ideal performance, plus the paper's diagnostic
// what-ifs (free interrupts, quadrupled I/O bandwidth, fetches made local).
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace svmsim;
  auto opt = bench::Options::parse(argc, argv);
  harness::Sweep sweep(opt.scale);

  SimConfig no_intr = bench::base_config();
  no_intr.comm.interrupt_cost = 0;
  SimConfig bw4 = bench::base_config();
  bw4.comm.io_bus_mb_per_mhz *= 4.0;
  SimConfig local = bench::base_config();
  local.disable_remote_fetches = true;
  SimConfig best = bench::base_config();
  best.comm = CommParams::best();

  const SimConfig variants[] = {bench::base_config(), no_intr, bw4, local,
                                best};
  constexpr std::size_t kVariants = std::size(variants);

  std::vector<harness::SweepPoint> points;
  for (const auto& app : opt.app_names) {
    for (std::size_t v = 0; v < kVariants; ++v) {
      points.push_back({app, variants[v], static_cast<double>(v)});
    }
  }
  bench::apply_options(points, opt);
  auto runs = bench::run_points(sweep, points, opt, "variant");

  harness::Table t({"application", "achievable", "free interrupts",
                    "4x I/O bandwidth", "local fetches", "best", "ideal"});
  for (std::size_t i = 0; i < opt.app_names.size(); ++i) {
    const auto* row_runs = &runs[i * kVariants];
    const auto& ach = row_runs[0];
    t.add_row({opt.app_names[i], harness::fmt(ach.speedup()),
               harness::fmt(row_runs[1].speedup()),
               harness::fmt(row_runs[2].speedup()),
               harness::fmt(row_runs[3].speedup()),
               harness::fmt(row_runs[4].speedup()),
               harness::fmt(ach.ideal_speedup())});
    std::fprintf(stderr, ".");
    std::fflush(stderr);
  }
  std::fprintf(stderr, "\n");
  std::printf("== Extra (paper 6): per-application gap analysis ==\n");
  t.print();
  harness::maybe_write_csv(t, opt.csv_dir, "extra_gap");
  return 0;
}
