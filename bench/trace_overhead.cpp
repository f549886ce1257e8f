// Tracing-overhead measurement: how much the trace subsystem costs the
// simulator hot path at runtime, in two arms:
//
//   compiled_in_disabled  --trace off: every instrumentation site pays one
//                         null check on the Simulator's tracer pointer
//   enabled               recording every category
//
// The two arms interleave rep by rep in one process, so external load
// perturbs both alike, and each arm's rate is its fastest rep. The section
// "trace_overhead" of the shared BENCH_sweep.json is replaced with this
// run's numbers plus the headline
//
//   enabled_vs_disabled_pct   cost of actually recording
//
//   ./trace_overhead [--app=fft] [--scale=tiny] [--reps=5]
//                    [--out=BENCH_sweep.json]
//
// The measured runs are also a determinism spot-check: simulated time must
// be identical across every rep and arm, traced or not, or we exit 1.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "apps/registry.hpp"
#include "core/params.hpp"
#include "core/runner.hpp"
#include "harness/cli.hpp"
#include "harness/report.hpp"
#include "trace/trace.hpp"

namespace {

using namespace svmsim;

struct Arm {
  double wall_seconds = 0.0;   ///< total over all reps
  double best_rep_wall = 0.0;  ///< fastest single rep
  std::uint64_t events = 0;    ///< total over all reps
  std::uint64_t rep_events = 0;  ///< events of one rep (deterministic)
  std::uint64_t sim_time = 0;

  /// Peak rate (fastest rep). The mean is useless on a shared/throttled
  /// machine — external load stalls whole reps — but the best rep of many
  /// converges on the unthrottled speed for every arm alike, which is what
  /// an overhead *ratio* needs.
  [[nodiscard]] double events_per_sec() const {
    return best_rep_wall > 0
               ? static_cast<double>(rep_events) / best_rep_wall
               : 0.0;
  }

  /// One measured repetition.
  void add_rep(double wall, std::uint64_t ev) {
    if (best_rep_wall == 0.0 || wall < best_rep_wall) best_rep_wall = wall;
    wall_seconds += wall;
    events += ev;
    rep_events = ev;
  }
};

/// One run of `app` with the given trace config, folded into `a`; checks
/// the simulated end time never wavers.
void run_rep(Arm& a, const std::string& app_name, apps::Scale scale,
             bool traced, const std::string& trace_path) {
  SimConfig cfg;
  cfg.comm = CommParams::achievable();
  cfg.trace.enabled = traced;
  if (traced) cfg.trace.path = trace_path;
  std::unique_ptr<Workload> app = apps::make_app(app_name, scale);
  const auto t0 = std::chrono::steady_clock::now();
  const RunResult r = run(*app, cfg);
  const auto t1 = std::chrono::steady_clock::now();
  if (!r.validated) {
    std::fprintf(stderr, "trace_overhead: %s failed validation\n",
                 app_name.c_str());
    std::exit(1);
  }
  if (a.sim_time != 0 && a.sim_time != r.time) {
    std::fprintf(stderr,
                 "trace_overhead: simulated time wavered (%llu vs %llu) -- "
                 "tracing must not affect simulation\n",
                 static_cast<unsigned long long>(a.sim_time),
                 static_cast<unsigned long long>(r.time));
    std::exit(1);
  }
  a.sim_time = r.time;
  a.add_rep(std::chrono::duration<double>(t1 - t0).count(), r.events);
}

std::string arm_json(const Arm& a, int reps) {
  std::ostringstream os;
  os << "{\"wall_seconds\": " << a.wall_seconds << ", \"events\": " << a.events
     << ", \"events_per_sec\": " << a.events_per_sec()
     << ", \"sim_time\": " << a.sim_time << ", \"reps\": " << reps << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  harness::Cli cli(argc, argv);
  const std::string app_name = cli.get_or("app", "fft");
  const std::string scale_name = cli.get_or("scale", "tiny");
  const int reps = static_cast<int>(cli.get_int("reps", 5));
  const std::string out_path = cli.get_or("out", "BENCH_sweep.json");

  apps::Scale scale = apps::Scale::kTiny;
  if (scale_name == "small") scale = apps::Scale::kSmall;
  if (scale_name == "large") scale = apps::Scale::kLarge;

  std::printf("== trace_overhead: %s/%s x%d ==\n", app_name.c_str(),
              scale_name.c_str(), reps);
  const std::string tmp_trace = out_path + ".overhead-trace.bin";
  Arm disabled_arm, enabled_arm;
  for (int i = 0; i < reps; ++i) {
    run_rep(disabled_arm, app_name, scale, false, "");
    run_rep(enabled_arm, app_name, scale, true, tmp_trace);
  }
  std::remove(tmp_trace.c_str());
  if (disabled_arm.sim_time != enabled_arm.sim_time) {
    std::fprintf(stderr,
                 "trace_overhead: --trace changed simulated time "
                 "(%llu vs %llu)\n",
                 static_cast<unsigned long long>(disabled_arm.sim_time),
                 static_cast<unsigned long long>(enabled_arm.sim_time));
    return 1;
  }

  const double eps_dis = disabled_arm.events_per_sec();
  const double eps_en = enabled_arm.events_per_sec();
  const double pct = eps_dis > 0 ? 100.0 * (eps_dis - eps_en) / eps_dis : 0;
  harness::Table t({"configuration", "events/sec", "overhead"});
  t.add_row({"compiled_in_disabled", harness::fmt(eps_dis, 0), "-"});
  t.add_row({"enabled", harness::fmt(eps_en, 0), harness::fmt(pct, 2) + "%"});
  t.print();
  std::ostringstream section;
  section << "\"trace_overhead\": {\n    \"app\": \"" << app_name
          << "\",\n    \"scale\": \"" << scale_name
          << "\",\n    \"compiled_in_disabled\": "
          << arm_json(disabled_arm, reps)
          << ",\n    \"enabled\": " << arm_json(enabled_arm, reps)
          << ",\n    \"enabled_vs_disabled_pct\": " << pct << "\n  }";

  // Merge into the shared BENCH JSON like the other tools do.
  std::string text;
  {
    std::ifstream in(out_path);
    if (in) {
      std::stringstream ss;
      ss << in.rdbuf();
      text = harness::strip_json_section(ss.str(), "trace_overhead");
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
