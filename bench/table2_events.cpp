// Table 2: protocol events per processor per million compute cycles for
// each application, at 1, 4 and 8 processors per node (16 total).
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace svmsim;
  auto opt = bench::Options::parse(argc, argv);
  harness::Sweep sweep(opt.scale);

  const auto runs = bench::run_points(
      sweep,
      bench::suite_points(
          {1, 4, 8},
          [](SimConfig& c, double v) {
            c.comm.procs_per_node = static_cast<int>(v);
          },
          opt),
      opt, "procs_per_node");

  harness::Table t({"application", "procs/node", "page faults", "page fetches",
                    "local locks", "remote locks", "barriers"});
  for (const auto& run : runs) {
    const RunResult& r = run.result;
    const auto& c = r.stats.counters();
    t.add_row({run.app, harness::fmt(run.param, 0),
               harness::fmt(r.per_proc_per_mcycles(c.page_faults)),
               harness::fmt(r.per_proc_per_mcycles(c.page_fetches)),
               harness::fmt(r.per_proc_per_mcycles(c.local_lock_acquires)),
               harness::fmt(r.per_proc_per_mcycles(c.remote_lock_acquires)),
               harness::fmt(r.per_proc_per_mcycles(c.barriers / 16))});
  }
  std::printf(
      "== Table 2: protocol events per processor per M compute cycles ==\n");
  t.print();
  harness::maybe_write_csv(t, opt.csv_dir, "table2");
  return 0;
}
