// Paper §10 ("Discussion and Future Work"): "Multiple network interfaces
// per node is another approach that can increase the available bandwidth."
// Sweep NI count at the achievable I/O bandwidth and at a starved one.
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace svmsim;
  auto opt = bench::Options::parse(argc, argv);
  harness::Sweep sweep(opt.scale);

  for (double bw : {0.5, 0.125}) {
    std::vector<harness::SweepPoint> points;
    for (const auto& app : opt.app_names) {
      for (int nics : {1, 2, 4}) {
        SimConfig cfg = bench::base_config();
        cfg.comm.io_bus_mb_per_mhz = bw;
        cfg.comm.nics_per_node = nics;
        points.push_back({app, cfg, static_cast<double>(nics)});
      }
    }
    bench::apply_options(points, opt, bw == 0.5 ? "ach" : "low");
    auto runs = bench::run_points(sweep, points, opt, "nics_per_node");

    harness::Table t({"application", "1 NI", "2 NIs", "4 NIs"});
    for (std::size_t i = 0; i < opt.app_names.size(); ++i) {
      std::vector<std::string> row{opt.app_names[i]};
      for (std::size_t c = 0; c < 3; ++c) {
        row.push_back(harness::fmt(runs[i * 3 + c].speedup()));
        std::fprintf(stderr, ".");
        std::fflush(stderr);
      }
      t.add_row(std::move(row));
    }
    std::fprintf(stderr, "\n");
    std::printf("== Extra (paper 10): NIs per node at %.3f MB/MHz ==\n", bw);
    t.print();
    harness::maybe_write_csv(t, opt.csv_dir,
                             bw == 0.5 ? "extra_multi_nic_ach"
                                       : "extra_multi_nic_low");
  }
  return 0;
}
