// Paper §5 extras: interrupt sensitivity with uniprocessor nodes, and
// round-robin vs fixed interrupt delivery within SMP nodes.
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace svmsim;
  auto opt = bench::Options::parse(argc, argv);
  harness::Sweep sweep(opt.scale);

  // (a) Interrupt cost sweep with uniprocessor nodes.
  {
    std::vector<harness::SweepPoint> points;
    for (const auto& app : opt.app_names) {
      for (double v : {0.0, 500.0, 2500.0, 5000.0}) {
        SimConfig cfg = bench::base_config();
        cfg.comm.procs_per_node = 1;
        cfg.comm.interrupt_cost = static_cast<Cycles>(v);
        points.push_back({app, cfg, v});
      }
    }
    bench::apply_options(points, opt, "uniproc");
    auto runs = bench::run_points(sweep, points, opt, "interrupt_cost");

    harness::Table t({"application", "intr=0", "intr=500", "intr=2500",
                      "intr=5000"});
    for (std::size_t i = 0; i < opt.app_names.size(); ++i) {
      std::vector<std::string> row{opt.app_names[i]};
      for (std::size_t c = 0; c < 4; ++c) {
        row.push_back(harness::fmt(runs[i * 4 + c].speedup()));
        std::fprintf(stderr, ".");
        std::fflush(stderr);
      }
      t.add_row(std::move(row));
    }
    std::fprintf(stderr, "\n");
    std::printf(
        "== Extra (paper 5): interrupt-cost sweep, uniprocessor nodes ==\n");
    t.print();
    harness::maybe_write_csv(t, opt.csv_dir, "extra_intr_uniproc");
  }

  // (b) Fixed processor-0 delivery vs round-robin.
  {
    std::vector<harness::SweepPoint> points;
    for (const auto& app : opt.app_names) {
      for (auto scheme : {InterruptScheme::kFixedProcessor,
                          InterruptScheme::kRoundRobin}) {
        SimConfig cfg = bench::base_config();
        cfg.comm.interrupt_scheme = scheme;
        points.push_back({app, cfg, static_cast<double>(scheme)});
      }
    }
    bench::apply_options(points, opt, "scheme");
    auto runs = bench::run_points(sweep, points, opt, "scheme");

    harness::Table t({"application", "fixed-proc0", "round-robin"});
    for (std::size_t i = 0; i < opt.app_names.size(); ++i) {
      std::vector<std::string> row{opt.app_names[i]};
      for (std::size_t c = 0; c < 2; ++c) {
        row.push_back(harness::fmt(runs[i * 2 + c].speedup()));
        std::fprintf(stderr, ".");
        std::fflush(stderr);
      }
      t.add_row(std::move(row));
    }
    std::fprintf(stderr, "\n");
    std::printf(
        "== Extra (paper 5): fixed vs round-robin interrupt delivery ==\n");
    t.print();
    harness::maybe_write_csv(t, opt.csv_dir, "extra_intr_scheme");
  }
  return 0;
}
