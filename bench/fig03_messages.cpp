// Figure 3: number of messages sent per processor per million compute
// cycles, at 1, 4 and 8 processors per node.
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
      row.push_back(
          harness::fmt(r.per_proc_per_mcycles(r.stats.counters().messages_sent)));
    }
    t.add_row(std::move(row));
  }
  std::printf(
      "== Figure 3: messages per processor per M compute cycles ==\n");
  t.print();
  harness::maybe_write_csv(t, opt.csv_dir, "fig03");
  return 0;
}
