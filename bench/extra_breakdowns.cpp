// Paper §7 ("Limitations on Application Performance"): where the parallel
// execution time goes for each application, at the achievable and the best
// configurations. This is the per-application cut behind the paper's
// conclusions about which parameter limits which program.
#include <cstdio>

#include "bench_common.hpp"

namespace {

std::vector<std::string> breakdown_row(const std::string& app,
                                       const char* config,
                                       const svmsim::RunResult& r) {
  using namespace svmsim;
  const Breakdown agg = r.stats.aggregate();
  const auto pct = [&](TimeCat c) {
    return harness::fmt(100.0 * static_cast<double>(agg.get(c)) /
                            static_cast<double>(agg.total()),
                        1) +
           "%";
  };
  return {app,
          config,
          pct(TimeCat::kCompute),
          pct(TimeCat::kMemStall),
          pct(TimeCat::kDataWait),
          pct(TimeCat::kLockWait),
          pct(TimeCat::kBarrierWait),
          pct(TimeCat::kHandler),
          pct(TimeCat::kProtocol)};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace svmsim;
  auto opt = bench::Options::parse(argc, argv);
  harness::Sweep sweep(opt.scale);

  // best=0 is the achievable configuration, best=1 the best one.
  const auto runs = bench::run_points(
      sweep,
      bench::suite_points(
          {0, 1},
          [](SimConfig& c, double best) {
            if (best != 0) c.comm = CommParams::best();
          },
          opt),
      opt, "best");

  harness::Table t({"application", "config", "compute", "mem", "data-wait",
                    "lock", "barrier", "handler", "protocol"});
  for (const auto& run : runs) {
    t.add_row(breakdown_row(run.app, run.param != 0 ? "best" : "achievable",
                            run.result));
  }
  std::printf("== Extra (paper 7): execution-time breakdowns ==\n");
  t.print();
  harness::maybe_write_csv(t, opt.csv_dir, "extra_breakdowns");
  return 0;
}
