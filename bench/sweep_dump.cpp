// Deterministic sweep dump: prints bench::sweep_dump() (bench_common.hpp)
// for the given flags.
//
// Runs one small fixed sweep per protocol (HLRC and AURC; two apps and a
// stress-gen seed, two host-overhead points, tiny scale) and prints every
// observable of each run: execution time, events fired, validation flag,
// uniprocessor baseline, per-category time breakdown and the full
// protocol/communication counter set. The output is bit-reproducible, so a
// byte diff between two runs proves they fired events in the same order
// everywhere these protocols exercise the engine. tests/test_inertness.cpp
// runs the same sweep in-process: it pins the default dump to
// tests/data/sweep_dump.golden and requires every runtime toggle below that
// must not perturb the simulation to reproduce it byte for byte.
//
// With --check-consistency every run additionally carries the shadow
// consistency checker (src/check/); the printed observables are unchanged,
// but the process exits 1 if any run reports a violation. A run that fails
// (validation, deadlock, a configuration an app rejects) prints
// "sweep_dump: <app> param=<host overhead>: <reason>" and exits 1.
//
// With --apps=a,b,c the sweep is restricted to that comma list (any
// apps::make_app name, including stress-gen@<seed>).
//
// With --procs=N every run simulates an N-processor cluster instead of the
// paper's 16 (validated like every procs flag: exit 4 when out of range or
// not a multiple of procs_per_node).
//
// With --topology=<spec> every run uses that interconnect backend
// (src/topo/). The crossbar backend leaves the dump byte-identical to the
// legacy default, while fat tree / torus runs append one "link" line per
// physical link (occupancy counters).
//
// Keep the format append-only: the golden file compares byte for byte.
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace svmsim;

  harness::Cli cli(argc, argv);
  std::vector<std::string> app_list = bench::kSweepDumpApps;
  if (auto apps_arg = cli.get("apps")) {
    app_list.clear();
    std::stringstream ss(*apps_arg);
    std::string item;
    while (std::getline(ss, item, ',')) {
      if (!item.empty()) app_list.push_back(item);
    }
  }

  SimConfig base = bench::base_config();
  base.check.enabled = cli.has("check-consistency");
  if (auto procs_arg = cli.get("procs")) {
    base.comm.total_procs = bench::checked_total_procs(
        argc > 0 ? argv[0] : "sweep_dump", "--procs",
        std::strtol(procs_arg->c_str(), nullptr, 10),
        base.comm.procs_per_node);
  }
  if (auto t = cli.get("topology")) {
    if (auto spec = topo::Spec::parse(*t)) {
      base.topology = *spec;
    } else {
      std::fprintf(stderr, "sweep_dump: unknown --topology value '%s'\n",
                   t->c_str());
      return bench::kExitBadTopology;
    }
    bench::checked_topology(argc > 0 ? argv[0] : "sweep_dump", base.topology,
                            base.comm.node_count());
  }

  bench::SweepDump dump;
  try {
    dump = bench::sweep_dump(base, app_list);
  } catch (const harness::PointError& e) {
    std::fprintf(stderr, "sweep_dump: %s\n", e.what());
    return 1;
  }
  std::fwrite(dump.text.data(), 1, dump.text.size(), stdout);

  // Violation counts stay off stdout (the dump must be byte-identical to an
  // unchecked run) but still fail the process.
  if (dump.violations > 0) {
    std::fprintf(stderr, "sweep_dump: %llu consistency violation(s)\n",
                 static_cast<unsigned long long>(dump.violations));
    return 1;
  }
  return 0;
}
