// Sensitivity sanity tests: varying each of the paper's communication
// parameters must move end performance in the documented direction. Also
// the architecture geometries ArchParams::validate() rejects.
#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "common.hpp"
#include "harness/sweep.hpp"

namespace svmsim::test {
namespace {

Cycles time_with(const std::string& app, SimConfig cfg) {
  auto a = apps::make_app(app, apps::Scale::kTiny);
  auto r = svmsim::run(*a, cfg);
  EXPECT_TRUE(r.validated);
  return r.time;
}

TEST(Sensitivity, InterruptCostHurtsEveryApp) {
  for (const auto& name : {"fft", "water-nsq", "barnes"}) {
    SimConfig lo = achievable_config();
    lo.comm.interrupt_cost = 0;
    SimConfig hi = achievable_config();
    hi.comm.interrupt_cost = 5000;
    EXPECT_GT(time_with(name, hi), time_with(name, lo)) << name;
  }
}

TEST(Sensitivity, BandwidthHelpsDataIntensiveApps) {
  SimConfig lo = achievable_config();
  lo.comm.io_bus_mb_per_mhz = 0.125;
  SimConfig hi = achievable_config();
  hi.comm.io_bus_mb_per_mhz = 2.0;
  EXPECT_GT(time_with("fft", lo), time_with("fft", hi));
  EXPECT_GT(time_with("radix", lo), time_with("radix", hi));
}

TEST(Sensitivity, HostOverheadHasModestEffect) {
  SimConfig lo = achievable_config();
  lo.comm.host_overhead = 0;
  SimConfig hi = achievable_config();
  hi.comm.host_overhead = 2000;
  const Cycles tlo = time_with("fft", lo);
  const Cycles thi = time_with("fft", hi);
  EXPECT_GE(thi, tlo);
  // Host overhead is amortized over page-grain transfers (paper §5):
  // a 2000-cycle overhead must cost far less than 2000 x messages.
  EXPECT_LT(static_cast<double>(thi) / static_cast<double>(tlo), 2.0);
}

TEST(Sensitivity, BestIsAtLeastAsFastAsAchievable) {
  for (const auto& name : {"fft", "lu", "water-nsq"}) {
    SimConfig ach = achievable_config();
    SimConfig best = achievable_config();
    best.comm = CommParams::best();
    EXPECT_LE(time_with(name, best), time_with(name, ach)) << name;
  }
}

TEST(Sensitivity, AurcIsMoreOccupancySensitiveThanHlrc) {
  // Figure 12's qualitative claim: raising NI occupancy hurts AURC more
  // than HLRC (updates are fine-grained packets).
  auto slowdown = [&](Protocol proto) {
    SimConfig lo = achievable_config();
    lo.comm.protocol = proto;
    lo.comm.ni_occupancy = 0;
    SimConfig hi = lo;
    hi.comm.ni_occupancy = 4000;
    return static_cast<double>(time_with("water-nsq", hi)) /
           static_cast<double>(time_with("water-nsq", lo));
  };
  EXPECT_GT(slowdown(Protocol::kAURC), slowdown(Protocol::kHLRC) * 0.95);
}

TEST(Sweep, BaselineIsCachedPerApp) {
  harness::Sweep sweep(apps::Scale::kTiny);
  SimConfig cfg = achievable_config();
  const Cycles b1 = sweep.baseline("fft", cfg);
  const Cycles b2 = sweep.baseline("fft", cfg);
  EXPECT_EQ(b1, b2);
  EXPECT_GT(b1, 0u);
}

TEST(Sweep, RunSweepProducesOnePointPerValue) {
  harness::Sweep sweep(apps::Scale::kTiny);
  SimConfig cfg = achievable_config();
  auto runs = sweep.run_sweep("lu", cfg, {0, 1000, 5000},
                              [](SimConfig& c, double v) {
                                c.comm.interrupt_cost = static_cast<Cycles>(v);
                              });
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].param, 0.0);
  EXPECT_EQ(runs[2].param, 5000.0);
  for (const auto& r : runs) {
    EXPECT_GT(r.speedup(), 0.0);
    EXPECT_GE(r.ideal_speedup(), r.speedup() * 0.99);
  }
  // Higher interrupt cost, lower speedup at the extremes.
  EXPECT_GT(runs[0].speedup(), runs[2].speedup());
  EXPECT_GT(harness::max_slowdown_pct(runs), 0.0);
}

TEST(Sweep, IdealSpeedupIgnoresCommunication) {
  harness::Sweep sweep(apps::Scale::kTiny);
  SimConfig cfg = achievable_config();
  auto point = sweep.run_point("ocean", cfg, 0);
  EXPECT_GT(point.ideal_speedup(), point.speedup());
}

// The cache tag store indexes sets with a shift and a mask and keeps two
// flag bits below each line address, so validate() must reject every
// geometry it cannot model, naming the field, in every build type.
TEST(ArchValidate, RejectsCacheGeometriesTheTagStoreCannotModel) {
  EXPECT_EQ(ArchParams{}.validate(), "");
  struct Case {
    const char* what;
    void (*edit)(ArchParams&);
    const char* names;
  };
  const Case cases[] = {
      {"line not a power of two",
       [](ArchParams& a) { a.l1.line_bytes = a.l2.line_bytes = 48; },
       "l1.line_bytes"},
      {"line under 8 bytes",
       [](ArchParams& a) { a.l1.line_bytes = a.l2.line_bytes = 4; },
       "l1.line_bytes"},
      {"L1 set count not a power of two",
       [](ArchParams& a) { a.l1.size_bytes = 24 * 1024; }, "l1 set count"},
      {"L2 set count not a power of two",
       [](ArchParams& a) { a.l2.associativity = 3; }, "l2 set count"},
      {"L2 size not a whole number of sets",
       [](ArchParams& a) { a.l2.size_bytes = 512 * 1024 + 64; },
       "l2 set count"},
      {"zero L1 associativity",
       [](ArchParams& a) { a.l1.associativity = 0; }, "l1.associativity"},
      {"zero L2 associativity",
       [](ArchParams& a) { a.l2.associativity = 0; }, "l2.associativity"},
      {"L1 and L2 lines differ",
       [](ArchParams& a) {
         a.l2.line_bytes = 128;
         a.l2.size_bytes = 1024 * 1024;
       },
       "l1.line_bytes and l2.line_bytes"},
      {"no write-buffer entry", [](ArchParams& a) { a.wb_entries = 0; },
       "wb_entries"},
  };
  for (const Case& c : cases) {
    ArchParams a;
    c.edit(a);
    const std::string err = a.validate();
    EXPECT_NE(err.find(c.names), std::string::npos)
        << c.what << ": got '" << err << "'";
  }
  // Other power-of-two geometries with equal lines are fine.
  ArchParams wide;
  wide.l1 = CacheParams{8 * 1024, 4, 32, 1};
  wide.l2 = CacheParams{256 * 1024, 8, 32, 8};
  EXPECT_EQ(wide.validate(), "");
}

// The Machine enforces validate(), and page sizes that are not a power of
// two (pages are indexed with a shift too).
TEST(ArchValidate, MachineRejectsBadGeometries) {
  SimConfig bad_cache;
  bad_cache.arch.l2.associativity = 3;
  EXPECT_THROW(Machine{bad_cache}, std::invalid_argument);
  SimConfig bad_page;
  bad_page.comm.page_bytes = 3000;
  EXPECT_THROW(Machine{bad_page}, std::invalid_argument);
}

}  // namespace
}  // namespace svmsim::test
