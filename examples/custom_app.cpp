// Writing your own workload against the SVM API.
//
// This example implements a parallel histogram: every processor classifies
// its block of samples locally, then merges its partial histogram into the
// shared one under per-bucket-range locks — a miniature of the Water-style
// lock-accumulate pattern. It runs the same program under both protocols
// (HLRC software diffs, AURC automatic updates) and compares the traffic.
#include <cstdio>
#include <vector>

#include "apps/app.hpp"
#include "core/runner.hpp"

namespace {

using namespace svmsim;
using apps::Distribution;
using apps::SharedArray;
using apps::Shm;

class HistogramApp final : public Workload {
 public:
  static constexpr int kSamples = 1 << 15;
  static constexpr int kBuckets = 256;
  static constexpr int kRanges = 8;  // lock granularity

  [[nodiscard]] std::string name() const override { return "histogram"; }

  void setup(Machine& m) override {
    samples_ = SharedArray<std::uint32_t>::alloc(m, kSamples,
                                                 Distribution::block());
    hist_ = SharedArray<std::uint32_t>::alloc(m, kBuckets,
                                              Distribution::fixed(0));
    apps::Rng rng(2026);
    expected_.assign(kBuckets, 0);
    for (int i = 0; i < kSamples; ++i) {
      const auto v = static_cast<std::uint32_t>(rng.below(kBuckets));
      samples_.debug_put(m, static_cast<std::size_t>(i), v);
      ++expected_[v];
    }
    for (int b = 0; b < kBuckets; ++b) {
      hist_.debug_put(m, static_cast<std::size_t>(b), 0u);
    }
  }

  engine::Task<void> body(Machine& m, ProcId pid) override {
    Shm shm(m, pid);
    const int P = shm.nprocs();
    const int s0 = kSamples * pid / P;
    const int s1 = kSamples * (pid + 1) / P;

    // Local pass over this processor's block (reads its own home pages).
    std::vector<std::uint32_t> block(static_cast<std::size_t>(s1 - s0));
    co_await samples_.get_block(shm, static_cast<std::size_t>(s0),
                                block.data(), block.size());
    std::vector<std::uint32_t> partial(kBuckets, 0);
    for (std::uint32_t v : block) ++partial[v];
    shm.compute(static_cast<Cycles>(block.size()) * 6);

    // Merge under range locks (read-modify-write on shared pages). Scalar
    // get/put must be co_awaited straight away, never stored: the awaitable
    // they return holds the value, and a hit completes inside it.
    constexpr int kPerRange = kBuckets / kRanges;
    for (int r = 0; r < kRanges; ++r) {
      const int range = (pid + r) % kRanges;  // stagger to reduce contention
      co_await shm.lock(10 + range);
      for (int b = range * kPerRange; b < (range + 1) * kPerRange; ++b) {
        if (partial[static_cast<std::size_t>(b)] == 0) continue;
        const std::uint32_t cur =
            co_await hist_.get(shm, static_cast<std::size_t>(b));
        co_await hist_.put(shm, static_cast<std::size_t>(b),
                           cur + partial[static_cast<std::size_t>(b)]);
        shm.compute(4);
      }
      co_await shm.unlock(10 + range);
    }
    co_await shm.barrier();
  }

  bool validate(Machine& m) override {
    for (int b = 0; b < kBuckets; ++b) {
      if (hist_.debug_get(m, static_cast<std::size_t>(b)) !=
          expected_[static_cast<std::size_t>(b)]) {
        return false;
      }
    }
    return true;
  }

 private:
  SharedArray<std::uint32_t> samples_;
  SharedArray<std::uint32_t> hist_;
  std::vector<std::uint32_t> expected_;
};

}  // namespace

int main() {
  for (Protocol proto : {Protocol::kHLRC, Protocol::kAURC}) {
    SimConfig cfg;
    cfg.comm = CommParams::achievable();
    cfg.comm.protocol = proto;

    HistogramApp app;
    RunResult r = run(app, cfg);
    const Counters& c = r.stats.counters();
    std::printf(
        "%s: valid=%s time=%llu cycles | fetches=%llu diffs=%llu "
        "updates=%llu packets=%llu interrupts=%llu\n",
        to_string(proto).c_str(), r.validated ? "yes" : "NO",
        static_cast<unsigned long long>(r.time),
        static_cast<unsigned long long>(c.page_fetches),
        static_cast<unsigned long long>(c.diffs_created),
        static_cast<unsigned long long>(c.updates_sent),
        static_cast<unsigned long long>(c.packets_sent),
        static_cast<unsigned long long>(c.interrupts));
    if (!r.validated) return 1;
  }
  std::printf(
      "\nNote how AURC replaces diff messages with fine-grained update "
      "packets and drops the diff-apply interrupts at the home.\n");
  return 0;
}
