// Figure 4: MBytes sent per processor per million compute cycles, at 1, 4
// and 8 processors per node.
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace svmsim;
  auto opt = bench::Options::parse(argc, argv);
  harness::Sweep sweep(opt.scale);

  const std::vector<double> ppns = {1, 4, 8};
  const auto runs = bench::run_points(
      sweep,
      bench::suite_points(
          ppns,
          [](SimConfig& c, double v) {
            c.comm.procs_per_node = static_cast<int>(v);
          },
          opt),
      opt, "procs_per_node");

  harness::Table t(
      {"application", "1 proc/node", "4 procs/node", "8 procs/node"});
  for (std::size_t a = 0; a < opt.app_names.size(); ++a) {
    std::vector<std::string> row{opt.app_names[a]};
    for (std::size_t i = 0; i < ppns.size(); ++i) {
      const RunResult& r = runs[a * ppns.size() + i].result;
      const double mb =
          static_cast<double>(r.stats.counters().bytes_sent) / 1e6;
      const double compute_m =
          static_cast<double>(r.stats.total_compute()) / 1e6;
      row.push_back(harness::fmt(compute_m > 0 ? mb / compute_m : 0, 3));
    }
    t.add_row(std::move(row));
  }
  std::printf("== Figure 4: MBytes per processor per M compute cycles ==\n");
  t.print();
  harness::maybe_write_csv(t, opt.csv_dir, "fig04");
  return 0;
}
