// Harness utilities: CLI parsing, table/CSV formatting, sweep failure
// reporting and the uniprocessor baseline cache.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/runner.hpp"
#include "harness/cli.hpp"
#include "harness/report.hpp"
#include "harness/sweep.hpp"

namespace svmsim::harness {
namespace {

AppRun run_with_speedup(Cycles uniprocessor, Cycles time) {
  AppRun r;
  r.uniprocessor = uniprocessor;
  r.result.time = time;
  return r;
}

std::vector<char*> argv_of(std::vector<std::string>& args) {
  std::vector<char*> out;
  for (auto& a : args) out.push_back(a.data());
  return out;
}

TEST(Cli, ParsesKeyEqualsValue) {
  std::vector<std::string> args{"prog", "--scale=large", "--csv=/tmp/x"};
  auto argv = argv_of(args);
  Cli cli(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(cli.get_or("scale", "?"), "large");
  EXPECT_EQ(cli.get_or("csv", "?"), "/tmp/x");
  EXPECT_FALSE(cli.get("missing").has_value());
}

TEST(Cli, ParsesKeySpaceValue) {
  std::vector<std::string> args{"prog", "--scale", "tiny"};
  auto argv = argv_of(args);
  Cli cli(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(cli.get_or("scale", "?"), "tiny");
}

TEST(Cli, BareFlagIsTruthy) {
  std::vector<std::string> args{"prog", "--verbose"};
  auto argv = argv_of(args);
  Cli cli(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_FALSE(cli.has("quiet"));
}

TEST(Cli, PositionalArguments) {
  std::vector<std::string> args{"prog", "fft", "--scale=tiny", "extra"};
  auto argv = argv_of(args);
  Cli cli(static_cast<int>(argv.size()), argv.data());
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "fft");
  EXPECT_EQ(cli.positional()[1], "extra");
}

TEST(Cli, NumericAccessors) {
  std::vector<std::string> args{"prog", "--n=42", "--x=2.5"};
  auto argv = argv_of(args);
  Cli cli(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(cli.get_int("n", 0), 42);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 0), 2.5);
  EXPECT_EQ(cli.get_int("missing", 7), 7);
}

TEST(Table, AlignsColumns) {
  Table t({"a", "longheader"});
  t.add_row({"xxxx", "1"});
  const std::string s = t.to_string();
  // Header and row lines must have matching column starts.
  std::istringstream is(s);
  std::string header, rule, row;
  std::getline(is, header);
  std::getline(is, rule);
  std::getline(is, row);
  EXPECT_EQ(header.find("longheader"), row.find("1"));
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_NO_THROW(t.to_string());
}

TEST(Table, CsvRoundTrip) {
  Table t({"app", "speedup"});
  t.add_row({"fft", "3.14"});
  t.add_row({"with,comma", "1"});
  const std::string path = "/tmp/svmsim_test_table.csv";
  t.write_csv(path);
  std::ifstream in(path);
  std::string l0, l1, l2, l3;
  std::getline(in, l0);  // provenance comment row (see docs/tracing.md)
  std::getline(in, l1);
  std::getline(in, l2);
  std::getline(in, l3);
  EXPECT_EQ(l0.rfind("# build: svmsim ", 0), 0u) << l0;
  EXPECT_EQ(l1, "app,speedup");
  EXPECT_EQ(l2, "fft,3.14");
  EXPECT_EQ(l3, "\"with,comma\",1");
  std::remove(path.c_str());
}

TEST(MaxSlowdown, FirstVsLastPoint) {
  // Speedups 4.0 (first/fast endpoint) and 2.0 (last/slow): 100% slowdown.
  std::vector<AppRun> runs{run_with_speedup(400, 100),
                           run_with_speedup(400, 150),
                           run_with_speedup(400, 200)};
  EXPECT_DOUBLE_EQ(max_slowdown_pct(runs), 100.0);
}

TEST(MaxSlowdown, NegativeWhenLastPointIsFaster) {
  // Speedups 2.0 then 4.0: the "slowdown" is a 50% speedup.
  std::vector<AppRun> runs{run_with_speedup(400, 200),
                           run_with_speedup(400, 100)};
  EXPECT_DOUBLE_EQ(max_slowdown_pct(runs), -50.0);
}

TEST(MaxSlowdown, FewerThanTwoRunsIsZero) {
  EXPECT_DOUBLE_EQ(max_slowdown_pct({}), 0.0);
  std::vector<AppRun> one{run_with_speedup(400, 100)};
  EXPECT_DOUBLE_EQ(max_slowdown_pct(one), 0.0);
}

TEST(MaxSlowdown, InvalidFirstPointIsZeroNotMinus100) {
  // A zero/invalid first point used to slip past the guard (only the last
  // point was checked) and silently report -100%.
  std::vector<AppRun> runs{run_with_speedup(400, 0),
                           run_with_speedup(400, 100)};
  EXPECT_DOUBLE_EQ(max_slowdown_pct(runs), 0.0);
}

TEST(MaxSlowdown, InvalidLastPointIsZero) {
  std::vector<AppRun> runs{run_with_speedup(400, 100),
                           run_with_speedup(400, 0)};
  EXPECT_DOUBLE_EQ(max_slowdown_pct(runs), 0.0);
}

TEST(Fmt, Precision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(3.14159, 0), "3");
  EXPECT_EQ(fmt(-0.5, 1), "-0.5");
}

// A failing point of a run_points batch surfaces as a PointError naming
// its app and swept value, not as the bare reason of the underlying run.
TEST(Sweep, FailingPointNamesAppAndValue) {
  SimConfig good;
  SimConfig bad;
  bad.comm.procs_per_node = 3;  // 16 processors do not split into nodes of 3
  const std::vector<SweepPoint> points{{"fft", good, 0}, {"fft", bad, 2000}};
  for (unsigned jobs : {1u, 2u}) {
    Sweep sweep(apps::Scale::kTiny);
    JobPool pool(jobs);
    try {
      (void)sweep.run_points(points, &pool);
      ADD_FAILURE() << "the rejected point did not fail the batch";
    } catch (const PointError& e) {
      EXPECT_EQ(e.app(), "fft");
      EXPECT_EQ(e.value(), 2000.0);
      const std::string what = e.what();
      EXPECT_NE(what.find("fft param=2000: "), std::string::npos) << what;
      EXPECT_NE(what.find("procs_per_node"), std::string::npos) << what;
    }
  }
}

// One baseline serves both protocols because on one node the protocol
// cannot change anything: every page is home, so HLRC makes no twins or
// diffs and AURC arms no automatic update.
TEST(Baseline, ProtocolDoesNotChangeAUniprocessorRun) {
  SimConfig hlrc = uniprocessor_config(SimConfig{});
  SimConfig aurc = hlrc;
  aurc.comm.protocol = Protocol::kAURC;
  for (const std::string& app : apps::suite()) {
    SCOPED_TRACE(app);
    auto w1 = apps::make_app(app, apps::Scale::kTiny);
    auto w2 = apps::make_app(app, apps::Scale::kTiny);
    const RunResult a = run(*w1, hlrc);
    const RunResult b = run(*w2, aurc);
    EXPECT_TRUE(a.validated);
    EXPECT_TRUE(b.validated);
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.stats, b.stats);
  }
  // Callers may pass either protocol; the baseline config pins one.
  EXPECT_EQ(uniprocessor_config(aurc).comm.protocol, Protocol::kHLRC);
}

// Concurrent callers of one key, under either protocol, all get the value a
// fresh simulation gives. A failing key is not cached: every caller, and a
// later one, sees the failure.
TEST(Baseline, ConcurrentCallersOfOneKeyAgree) {
  SimConfig hlrc;
  SimConfig aurc;
  aurc.comm.protocol = Protocol::kAURC;
  auto w = apps::make_app("lu", apps::Scale::kTiny);
  const Cycles want = run(*w, uniprocessor_config(hlrc)).time;

  Sweep sweep(apps::Scale::kTiny);
  constexpr int kCallers = 4;
  std::vector<Cycles> got(kCallers, 0);
  std::vector<int> failures(kCallers, 0);
  {
    std::vector<std::jthread> callers;
    for (int i = 0; i < kCallers; ++i) {
      callers.emplace_back([&, i] {
        got[i] = sweep.baseline("lu", i % 2 == 0 ? hlrc : aurc);
        try {
          (void)sweep.baseline("no-such-app", hlrc);
        } catch (const std::exception&) {
          failures[i] = 1;
        }
      });
    }
  }
  for (int i = 0; i < kCallers; ++i) {
    EXPECT_EQ(got[i], want) << "caller " << i;
    EXPECT_EQ(failures[i], 1) << "caller " << i;
  }
  EXPECT_EQ(sweep.baseline("lu", aurc), want);
  EXPECT_THROW((void)sweep.baseline("no-such-app", aurc), std::exception);
}

}  // namespace
}  // namespace svmsim::harness
