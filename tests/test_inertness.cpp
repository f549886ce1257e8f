// Observational inertness of every runtime toggle that must not change a
// simulation, checked in one process on bench::sweep_dump() — the fixed
// two-protocol reference sweep that bench/sweep_dump prints.
//
// The default dump is pinned byte for byte to tests/data/sweep_dump.golden,
// so a change to any simulated observable fails here. Each other arm flips
// exactly one toggle and must reproduce the default dump exactly:
//
//   * the consistency checker (check.enabled), which must also find zero
//     violations on the reference sweep;
//   * the event tracer (trace.enabled, recording in memory);
//   * the crossbar topology backend, which routes every packet through the
//     topology dispatch but must compute the legacy latency verbatim.
//
// Contended topologies are not inert by design; their arm only requires
// that fat tree and torus dumps at 64 processors carry per-link occupancy
// lines. When a simulated observable changes on purpose, regenerate with
//
//   SVMSIM_GOLDEN_REGEN=1 ./tests/test_inertness
//
// which rewrites tests/data/sweep_dump.golden in place (the build injects
// the source-tree path as SVMSIM_TEST_DATA_DIR).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_common.hpp"

namespace svmsim::bench {
namespace {

std::string golden_path() {
  return std::string(SVMSIM_TEST_DATA_DIR) + "/sweep_dump.golden";
}

/// The default arm, computed once and shared by every comparison.
const SweepDump& default_dump() {
  static const SweepDump dump = sweep_dump(base_config());
  return dump;
}

TEST(Inertness, DefaultSweepMatchesGolden) {
  const std::string& got = default_dump().text;
  if (std::getenv("SVMSIM_GOLDEN_REGEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << got;
    out.close();
    GTEST_SKIP() << "regenerated " << golden_path();
  }
  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing " << golden_path()
                         << " — run with SVMSIM_GOLDEN_REGEN=1 to create it";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str())
      << "simulation observables changed; if intended, regenerate with "
         "SVMSIM_GOLDEN_REGEN=1 ./tests/test_inertness";
}

TEST(Inertness, CheckerLeavesSweepUnchangedAndClean) {
  SimConfig cfg = base_config();
  cfg.check.enabled = true;
  const SweepDump checked = sweep_dump(cfg);
  EXPECT_EQ(checked.violations, 0u);
  EXPECT_EQ(checked.text, default_dump().text);
}

TEST(Inertness, InMemoryTracerLeavesSweepUnchanged) {
  SimConfig cfg = base_config();
  cfg.trace.enabled = true;  // no path: records stay in memory
  ASSERT_TRUE(cfg.trace.path.empty());
  EXPECT_EQ(sweep_dump(cfg).text, default_dump().text);
}

TEST(Inertness, CrossbarTopologyLeavesSweepUnchanged) {
  SimConfig cfg = base_config();
  cfg.topology = *topo::Spec::parse("crossbar");
  EXPECT_EQ(sweep_dump(cfg).text, default_dump().text);
}

TEST(Inertness, ContendedTopologiesReportLinks) {
  for (const char* spec : {"fattree:4", "torus:4x4"}) {
    SCOPED_TRACE(spec);
    SimConfig cfg = base_config();
    cfg.comm.total_procs = 64;
    cfg.topology = *topo::Spec::parse(spec);
    const std::string text = sweep_dump(cfg, {"stress-gen@3"}).text;
    EXPECT_NE(text.find("\n  link"), std::string::npos)
        << "no per-link lines in the " << spec << " dump";
  }
}

}  // namespace
}  // namespace svmsim::bench
