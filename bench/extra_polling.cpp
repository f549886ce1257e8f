// Paper §10 ("Discussion and Future Work"): polling instead of interrupts.
// For each application, compare interrupt-based delivery across interrupt
// costs against polling — polling trades a fixed poll latency for complete
// insensitivity to interrupt cost, giving "more predictable and portable
// performance across architectures and operating systems".
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace svmsim;
  auto opt = bench::Options::parse(argc, argv);
  harness::Sweep sweep(opt.scale);

  std::vector<harness::SweepPoint> points;
  for (const auto& app : opt.app_names) {
    for (double v : {500.0, 2500.0, 5000.0}) {
      SimConfig cfg = bench::base_config();
      cfg.comm.interrupt_cost = static_cast<Cycles>(v);
      points.push_back({app, cfg, v});
    }
    for (double tick : {1000.0, 4000.0}) {
      SimConfig cfg = bench::base_config();
      cfg.comm.interrupt_scheme = InterruptScheme::kPolling;
      cfg.comm.poll_interval = static_cast<Cycles>(tick);
      points.push_back({app, cfg, tick});
    }
  }
  bench::apply_options(points, opt);
  auto runs = bench::run_points(sweep, points, opt,
                                "interrupt_cost|poll_interval");
  constexpr std::size_t kCols = 5;

  harness::Table t({"application", "intr cost=500", "intr cost=2500",
                    "intr cost=5000", "polling (1K tick)",
                    "polling (4K tick)"});
  for (std::size_t i = 0; i < opt.app_names.size(); ++i) {
    std::vector<std::string> row{opt.app_names[i]};
    for (std::size_t c = 0; c < kCols; ++c) {
      row.push_back(harness::fmt(runs[i * kCols + c].speedup()));
      std::fprintf(stderr, ".");
      std::fflush(stderr);
    }
    t.add_row(std::move(row));
  }
  std::fprintf(stderr, "\n");
  std::printf("== Extra (paper 10): interrupts vs polling ==\n");
  t.print();
  harness::maybe_write_csv(t, opt.csv_dir, "extra_polling");
  return 0;
}
