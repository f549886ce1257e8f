// Scheduler microbenchmark: engine::EventQueue (the tiered scheduler, see
// src/engine/event_queue.hpp) throughput on synthetic delay mixes.
//
// Each measurement keeps a fixed number of events in flight: the queue is
// seeded to the target depth and every fired event schedules one successor
// with a delay drawn from the scenario's distribution, so the steady-state
// profile (lane/wheel/heap tier usage, pending count) matches the scenario
// rather than a drain ramp. Delay scenarios cover each tier: same-tick
// zero-delay (the FIFO lane), short and medium delays (wheel levels 0-2),
// far-future delays (wheel level 3), overflow beyond the wheel horizon (the
// fallback heap tier), and a mixed 60/30/10 profile shaped like the
// simulator's own scheduling behavior.
//
//   ./micro_event_queue [--fires=N] [--out=BENCH_sweep.json]
//
// Results are printed as a table and merged into the --out JSON as a
// "micro_event_queue" section, alongside perf_selfcheck's whole-simulator
// numbers (each tool preserves the other's section when rewriting the file).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/event_queue.hpp"
#include "harness/cli.hpp"
#include "harness/report.hpp"
#include "trace/trace.hpp"

namespace {

using svmsim::Cycles;

/// Deterministic split-output LCG (same constants as MMIX); good enough to
/// decorrelate delays, and identical across runs by construction.
struct Lcg {
  std::uint64_t s;
  std::uint64_t next() noexcept {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return s >> 33;
  }
};

struct Scenario {
  const char* name;
  Cycles (*delay)(Lcg&);
};

const Scenario kScenarios[] = {
    {"zero", [](Lcg&) -> Cycles { return 0; }},
    {"short", [](Lcg& r) -> Cycles { return 1 + r.next() % 255; }},
    {"medium", [](Lcg& r) -> Cycles { return 256 + r.next() % 65280; }},
    {"far",
     [](Lcg& r) -> Cycles {
       return (Cycles{1} << 24) + r.next() % (Cycles{1} << 24);
     }},
    {"overflow",
     [](Lcg& r) -> Cycles { return (Cycles{1} << 33) + r.next() % 1024; }},
    {"mixed",
     [](Lcg& r) -> Cycles {
       const std::uint64_t p = r.next() % 10;
       if (p < 6) return 0;
       if (p < 9) return 1 + r.next() % 255;
       return 256 + r.next() % 65280;
     }},
};

constexpr std::size_t kDepths[] = {16, 256, 4096};

/// One self-perpetuating chain: seed `depth` events, then every fire
/// schedules one successor until `fires` total events have been scheduled,
/// after which the queue drains. Returns fires per wall-clock second.
double run_chain(const Scenario& sc, std::size_t depth, std::uint64_t fires) {
  struct Driver {
    svmsim::engine::EventQueue q;
    Lcg rng;
    Cycles (*delay)(Lcg&);
    std::uint64_t remaining = 0;

    void pump() {
      if (remaining == 0) return;
      --remaining;
      const Cycles d = delay(rng);
      if (d == 0) {
        q.schedule_now([this] { pump(); });
      } else {
        q.schedule_in(d, [this] { pump(); });
      }
    }
  };

  Driver drv;
  drv.rng.s = 0x9e3779b97f4a7c15ull;  // fixed seed: identical across runs
  drv.delay = sc.delay;
  const std::uint64_t seed = fires < depth ? fires : depth;
  drv.remaining = fires;

  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < seed; ++i) drv.pump();
  drv.q.run_until_idle();
  const auto t1 = std::chrono::steady_clock::now();

  if (drv.q.events_fired() != fires) {
    std::fprintf(stderr, "micro_event_queue: %s/d%zu fired %llu != %llu\n",
                 sc.name, depth,
                 static_cast<unsigned long long>(drv.q.events_fired()),
                 static_cast<unsigned long long>(fires));
    std::exit(1);
  }
  const double wall = std::chrono::duration<double>(t1 - t0).count();
  return wall > 0 ? static_cast<double>(fires) / wall : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace svmsim;
  harness::Cli cli(argc, argv);
  const std::uint64_t fires =
      static_cast<std::uint64_t>(cli.get_int("fires", 500000));
  const std::string out_path = cli.get_or("out", "BENCH_sweep.json");

  std::printf("== micro_event_queue: %llu fires per cell ==\n",
              static_cast<unsigned long long>(fires));
  harness::Table t({"scenario", "depth", "ev/s"});
  std::ostringstream section;
  section << "\"micro_event_queue\": {\n    \"fires\": " << fires
          << ",\n    \"events_per_sec\": {";
  bool first = true;
  for (const auto& sc : kScenarios) {
    for (std::size_t depth : kDepths) {
      const double eps = run_chain(sc, depth, fires);
      t.add_row({sc.name, std::to_string(depth), harness::fmt(eps, 0)});
      section << (first ? "" : ",") << "\n      \"" << sc.name << "/d" << depth
              << "\": " << eps;
      first = false;
    }
  }
  section << "\n    }\n  }";
  t.print();

  // Merge our section into the shared BENCH JSON (replacing any previous
  // run's section, preserving everything else).
  std::string text;
  {
    std::ifstream in(out_path);
    if (in) {
      std::stringstream ss;
      ss << in.rdbuf();
      text = harness::strip_json_section(ss.str(), "micro_event_queue");
    }
  }
  const std::size_t close = text.find_last_of('}');
  if (close == std::string::npos) {
    text = "{\n  \"bench\": \"sweep\",\n  \"schema\": 2,\n  \"build\": \"" +
           trace::build_provenance() + "\",\n  " + section.str() + "\n}\n";
  } else {
    text = text.substr(0, close) + ",\n  " + section.str() + "\n}\n";
  }
  harness::write_file_atomic(out_path, text);
  std::printf("(merged into %s)\n", out_path.c_str());
  return 0;
}
