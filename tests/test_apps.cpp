// Application-suite validation matrix: every application must compute the
// right answer through the full protocol stack, across protocols, cluster
// shapes and page sizes.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "apps/registry.hpp"
#include "common.hpp"

namespace svmsim::test {
namespace {

TEST(Registry, SuiteHasTenApplicationsInPaperOrder) {
  const auto& s = apps::suite();
  ASSERT_EQ(s.size(), 10u);
  EXPECT_EQ(s.front(), "fft");
  EXPECT_EQ(s.back(), "barnes-space");
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(apps::make_app("nosuch", apps::Scale::kTiny),
               std::invalid_argument);
}

TEST(Registry, RegularIrregularGrouping) {
  EXPECT_TRUE(apps::is_regular("fft"));
  EXPECT_TRUE(apps::is_regular("lu"));
  EXPECT_TRUE(apps::is_regular("ocean"));
  EXPECT_FALSE(apps::is_regular("radix"));
  EXPECT_FALSE(apps::is_regular("barnes"));
}

using AppCase = std::tuple<std::string, Protocol, int /*total*/, int /*ppn*/>;

class AppMatrix : public ::testing::TestWithParam<AppCase> {};

TEST_P(AppMatrix, ValidatesAtTinyScale) {
  auto [name, proto, total, ppn] = GetParam();
  SimConfig cfg = config_with(total, ppn, proto);
  auto app = apps::make_app(name, apps::Scale::kTiny);
  auto r = svmsim::run(*app, cfg);
  EXPECT_TRUE(r.validated) << name;
  EXPECT_GT(r.time, 0u);
}

std::vector<AppCase> app_cases() {
  std::vector<AppCase> cases;
  for (const auto& name : apps::suite()) {
    cases.emplace_back(name, Protocol::kHLRC, 16, 4);
    cases.emplace_back(name, Protocol::kHLRC, 16, 1);
    cases.emplace_back(name, Protocol::kHLRC, 8, 8);
    cases.emplace_back(name, Protocol::kAURC, 16, 4);
  }
  return cases;
}

std::string app_case_name(const ::testing::TestParamInfo<AppCase>& info) {
  std::string n = std::get<0>(info.param);
  for (auto& c : n) {
    if (c == '-') c = '_';
  }
  return n + "_" + to_string(std::get<1>(info.param)) + "_" +
         std::to_string(std::get<2>(info.param)) + "p" +
         std::to_string(std::get<3>(info.param));
}

INSTANTIATE_TEST_SUITE_P(Suite, AppMatrix, ::testing::ValuesIn(app_cases()),
                         app_case_name);

using PageCase = std::tuple<std::string, int /*page KB*/>;

class PageSizeMatrix : public ::testing::TestWithParam<PageCase> {};

TEST_P(PageSizeMatrix, ValidatesAcrossPageSizes) {
  auto [name, page_kb] = GetParam();
  SimConfig cfg = config_with(16, 4);
  cfg.comm.page_bytes = static_cast<std::uint32_t>(page_kb) * 1024;
  auto app = apps::make_app(name, apps::Scale::kTiny);
  auto r = svmsim::run(*app, cfg);
  EXPECT_TRUE(r.validated) << name << " @" << page_kb << "K";
}

std::string page_case_name(const ::testing::TestParamInfo<PageCase>& info) {
  std::string n = std::get<0>(info.param);
  for (auto& c : n) {
    if (c == '-') c = '_';
  }
  return n + "_" + std::to_string(std::get<1>(info.param)) + "K";
}

INSTANTIATE_TEST_SUITE_P(
    Pages, PageSizeMatrix,
    ::testing::Combine(::testing::Values(std::string("fft"),
                                         std::string("radix"),
                                         std::string("water-nsq"),
                                         std::string("barnes")),
                       ::testing::Values(1, 2, 8, 16)),
    page_case_name);

TEST(AppBehaviour, RegularAppsAreSingleWriter) {
  // The paper's defining property of FFT/LU/Ocean: with proper data
  // placement writes are (almost) all local to the home, so HLRC computes
  // no diffs for FFT/LU and only a handful of boundary-page diffs for
  // Ocean. Needs kSmall so rows/blocks align with pages.
  for (const auto& name : {"fft", "lu"}) {
    SimConfig cfg = config_with(16, 4);
    auto app = apps::make_app(name, apps::Scale::kSmall);
    auto r = svmsim::run(*app, cfg);
    ASSERT_TRUE(r.validated) << name;
    EXPECT_EQ(r.stats.counters().diffs_created, 0u) << name;
  }
  SimConfig cfg = config_with(16, 4);
  auto ocean = apps::make_app("ocean", apps::Scale::kSmall);
  auto r = svmsim::run(*ocean, cfg);
  ASSERT_TRUE(r.validated);
  // A few row-straddling pages diff each sweep; nothing like the irregular
  // applications' volumes.
  EXPECT_LT(r.stats.counters().diff_bytes, r.stats.counters().bytes_sent / 4);
}

TEST(AppBehaviour, IrregularAppsCreateDiffs) {
  for (const auto& name : {"water-nsq", "barnes", "radix"}) {
    SimConfig cfg = config_with(16, 4);
    auto app = apps::make_app(name, apps::Scale::kTiny);
    auto r = svmsim::run(*app, cfg);
    ASSERT_TRUE(r.validated) << name;
    EXPECT_GT(r.stats.counters().diffs_created, 0u) << name;
  }
}

TEST(AppBehaviour, BarnesRebuildLocksFarMoreThanSpace) {
  SimConfig cfg = config_with(16, 4);
  auto rebuild = apps::make_app("barnes", apps::Scale::kTiny);
  auto space = apps::make_app("barnes-space", apps::Scale::kTiny);
  auto rr = svmsim::run(*rebuild, cfg);
  auto rs = svmsim::run(*space, cfg);
  ASSERT_TRUE(rr.validated);
  ASSERT_TRUE(rs.validated);
  const auto locks_rebuild = rr.stats.counters().local_lock_acquires +
                             rr.stats.counters().remote_lock_acquires;
  const auto locks_space = rs.stats.counters().local_lock_acquires +
                           rs.stats.counters().remote_lock_acquires;
  EXPECT_GT(locks_rebuild, 10 * (locks_space + 1));
}

TEST(AppBehaviour, TaskStealingAppsUseLocks) {
  for (const auto& name : {"raytrace", "volrend"}) {
    SimConfig cfg = config_with(16, 4);
    auto app = apps::make_app(name, apps::Scale::kTiny);
    auto r = svmsim::run(*app, cfg);
    ASSERT_TRUE(r.validated) << name;
    EXPECT_GT(r.stats.counters().local_lock_acquires +
                  r.stats.counters().remote_lock_acquires,
              16u)
        << name;
  }
}

TEST(AppBehaviour, FftRejectsProcessorCountsThatDoNotSplitItsRows) {
  // Tiny fft is a 16 x 16 matrix split by whole rows: 32 processors would
  // leave every processor zero rows, 12 would leave rows unassigned.
  for (auto [total, ppn] : {std::pair{32, 4}, std::pair{12, 4}}) {
    auto app = apps::make_app("fft", apps::Scale::kTiny);
    try {
      (void)svmsim::run(*app, config_with(total, ppn));
      ADD_FAILURE() << "fft ran on " << total << " processors";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("fft"), std::string::npos) << what;
      EXPECT_NE(what.find("m=16"), std::string::npos) << what;
      EXPECT_NE(what.find("P=" + std::to_string(total)), std::string::npos)
          << what;
    }
  }
}

TEST(AppBehaviour, UniprocessorRunsHaveNoCommunication) {
  for (const auto& name : apps::suite()) {
    SimConfig cfg = config_with(1, 1);
    auto app = apps::make_app(name, apps::Scale::kTiny);
    auto r = svmsim::run(*app, cfg);
    ASSERT_TRUE(r.validated) << name;
    EXPECT_EQ(r.stats.counters().messages_sent, 0u) << name;
    EXPECT_EQ(r.stats.counters().page_fetches, 0u) << name;
    EXPECT_EQ(r.stats.counters().interrupts, 0u) << name;
  }
}

}  // namespace
}  // namespace svmsim::test
