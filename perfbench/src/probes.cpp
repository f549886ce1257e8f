#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <memory>
#include <vector>

#include "apps/registry.hpp"
#include "core/machine.hpp"
#include "engine/event_queue.hpp"
#include "memsys/cache.hpp"
#include "svm/diff.hpp"
#include "svm/vclock.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kReps = 7;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// splitmix64: seeds every probe's pattern from the benchmark seed.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() noexcept {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
};

/// Keeps a probe's result observable so its loop is not optimized away.
volatile std::uint64_t g_sink = 0;

/// Lookups drawn from 1.5x the cache's capacity after filling it with the
/// first two thirds of that range, so about two thirds hit; no fills while
/// timed.
double probe_lookup(const svmsim::ArchParams& arch, std::uint64_t seed) {
  std::vector<double> per_op;
  for (int rep = 0; rep < kReps; ++rep) {
    double ns = 0;
    std::uint64_t ops = 0;
    std::uint64_t hits = 0;
    for (const svmsim::CacheParams& cp : {arch.l1, arch.l2}) {
      svmsim::memsys::Cache cache(cp);
      const std::uint64_t lines = cp.size_bytes / cp.line_bytes;
      for (std::uint64_t i = 0; i < lines; ++i) {
        cache.fill(i * cp.line_bytes, false);
      }
      Rng rng{seed + static_cast<std::uint64_t>(rep)};
      std::vector<std::uint64_t> addrs(1u << 16);
      for (auto& a : addrs) {
        a = (rng.next() % (lines + lines / 2)) * cp.line_bytes;
      }
      const auto t0 = Clock::now();
      for (int pass = 0; pass < 4; ++pass) {
        for (std::uint64_t a : addrs) hits += cache.lookup(a, false) ? 1 : 0;
      }
      ns += ns_since(t0);
      ops += 4 * addrs.size();
    }
    g_sink = hits;
    per_op.push_back(ns / static_cast<double>(ops));
  }
  return median(per_op);
}

/// The SVM layer invalidates a page in both caches when it is replaced or
/// written remotely. Batches of pages with every fourth line resident are
/// filled untimed and invalidated timed.
double probe_invalidate(const svmsim::SimConfig& cfg, std::uint64_t seed) {
  const std::uint32_t page = cfg.comm.page_bytes;
  const std::uint32_t line = cfg.arch.l2.line_bytes;
  const std::uint64_t region_pages =
      std::max<std::uint64_t>(64, 4ull * cfg.arch.l2.size_bytes / page);
  constexpr int kBatch = 64;
  constexpr int kBatches = 64;
  std::vector<double> per_op;
  for (int rep = 0; rep < kReps; ++rep) {
    svmsim::memsys::Cache l1(cfg.arch.l1);
    svmsim::memsys::Cache l2(cfg.arch.l2);
    Rng rng{seed ^ (0x5eedull + static_cast<std::uint64_t>(rep))};
    double ns = 0;
    std::uint64_t batch[kBatch];
    for (int b = 0; b < kBatches; ++b) {
      for (auto& start : batch) {
        start = (rng.next() % region_pages) * page;
        for (std::uint64_t off = 0; off < page; off += 4ull * line) {
          l1.fill(start + off, false);
          l2.fill(start + off, true);
        }
      }
      const auto t0 = Clock::now();
      for (std::uint64_t start : batch) {
        l1.invalidate_range(start, page);
        l2.invalidate_range(start, page);
      }
      ns += ns_since(t0);
    }
    per_op.push_back(ns / (kBatch * kBatches));
  }
  return median(per_op);
}

/// A self-perpetuating chain with one event in flight per simulated
/// processor: 60% same-tick, 30% short and 10% medium delays, the mix the
/// simulator's own scheduling shows.
double probe_events(const svmsim::SimConfig& cfg, std::uint64_t seed) {
  struct Chain {
    svmsim::engine::EventQueue q;
    Rng rng{0};
    std::uint64_t remaining = 0;

    void pump() {
      if (remaining == 0) return;
      --remaining;
      const std::uint64_t r = rng.next();
      const std::uint64_t p = r % 10;
      if (p < 6) {
        q.schedule_now([this] { pump(); });
      } else if (p < 9) {
        q.schedule_in(1 + (r >> 8) % 255, [this] { pump(); });
      } else {
        q.schedule_in(256 + (r >> 8) % 65280, [this] { pump(); });
      }
    }
  };
  constexpr std::uint64_t kFires = 1u << 18;
  const auto depth = static_cast<std::uint64_t>(cfg.comm.total_procs);
  std::vector<double> per_op;
  for (int rep = 0; rep < kReps; ++rep) {
    auto chain = std::make_unique<Chain>();
    chain->rng.s = seed + static_cast<std::uint64_t>(rep);
    chain->remaining = kFires;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < depth; ++i) chain->pump();
    chain->q.run_until_idle();
    const double ns = ns_since(t0);
    per_op.push_back(ns / static_cast<double>(chain->q.events_fired()));
  }
  return median(per_op);
}

/// Merges between clocks sized to the node count, with a few entries
/// advanced between merges as intervals close.
double probe_vclock(const svmsim::SimConfig& cfg, std::uint64_t seed) {
  const int nodes = cfg.comm.node_count();
  constexpr int kClocks = 64;
  constexpr int kMerges = 1 << 16;
  std::vector<double> per_op;
  for (int rep = 0; rep < kReps; ++rep) {
    Rng rng{seed * 31 + static_cast<std::uint64_t>(rep)};
    std::vector<svmsim::svm::VClock> clocks(kClocks,
                                            svmsim::svm::VClock(nodes));
    for (auto& c : clocks) {
      for (int n = 0; n < nodes; ++n) {
        c.set(n, static_cast<std::uint32_t>(rng.next() % 64));
      }
    }
    std::vector<std::uint32_t> picks(kMerges);
    for (auto& p : picks) p = static_cast<std::uint32_t>(rng.next());
    const auto t0 = Clock::now();
    for (std::uint32_t p : picks) {
      svmsim::svm::VClock& dst = clocks[p % kClocks];
      dst.merge(clocks[(p >> 8) % kClocks]);
      dst.advance(static_cast<svmsim::NodeId>(
          (p >> 16) % static_cast<std::uint32_t>(nodes)));
    }
    per_op.push_back(ns_since(t0) / kMerges);
    g_sink = clocks[0].sum();
  }
  return median(per_op);
}

/// Diff creation against the twin plus its application at the home, for a
/// page with a few scattered written runs.
double probe_diff(const svmsim::SimConfig& cfg, std::uint64_t seed) {
  const std::uint32_t page = cfg.comm.page_bytes;
  constexpr int kPages = 16;
  constexpr int kRounds = 64;
  std::vector<double> per_op;
  for (int rep = 0; rep < kReps; ++rep) {
    Rng rng{seed * 17 + static_cast<std::uint64_t>(rep)};
    std::vector<std::byte> twin(static_cast<std::size_t>(page) * kPages);
    for (auto& b : twin) b = static_cast<std::byte>(rng.next());
    std::vector<std::byte> cur = twin;
    for (int p = 0; p < kPages; ++p) {
      for (int run = 0; run < 8; ++run) {
        const std::size_t off = p * std::size_t{page} +
                                (rng.next() % (page / 64)) * 64;
        for (std::size_t i = 0; i < 32; ++i) cur[off + i] = ~cur[off + i];
      }
    }
    std::vector<std::byte> home = twin;
    svmsim::svm::PageDiff diff;
    const auto t0 = Clock::now();
    for (int round = 0; round < kRounds; ++round) {
      for (int p = 0; p < kPages; ++p) {
        const std::size_t off = p * std::size_t{page};
        svmsim::svm::compute_diff(
            static_cast<svmsim::svm::PageId>(p),
            std::span<const std::byte>(cur).subspan(off, page),
            std::span<const std::byte>(twin).subspan(off, page), diff);
        svmsim::svm::apply_diff(std::span<std::byte>(home).subspan(off, page),
                                diff);
      }
    }
    per_op.push_back(ns_since(t0) / (kPages * kRounds));
    g_sink = diff.modified_bytes();
  }
  return median(per_op);
}

double probe_build(const svmsim::SimConfig& cfg) {
  constexpr int kBuilds = 8;
  std::vector<double> per_op;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kBuilds; ++i) {
      svmsim::Machine m(cfg);
      g_sink = static_cast<std::uint64_t>(m.total_procs());
    }
    per_op.push_back(ns_since(t0) / 1e3 / kBuilds);
  }
  return median(per_op);
}

/// Per application of the workload: construct it and run its (untimed in
/// the simulation) setup on a fresh machine; the machine is built untimed.
double probe_app_setup(const Workload& w) {
  std::vector<double> per_op;
  for (int rep = 0; rep < 3; ++rep) {
    double ns = 0;
    for (const auto& name : w.probe_apps) {
      svmsim::Machine m(w.probe_cfg);
      const auto t0 = Clock::now();
      auto app = svmsim::apps::make_app(name, w.scale);
      app->setup(m);
      ns += ns_since(t0);
    }
    per_op.push_back(ns / 1e3 / static_cast<double>(w.probe_apps.size()));
  }
  return median(per_op);
}

}  // namespace

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

ProbeResult run_probes(const Workload& w, std::uint64_t seed) {
  const svmsim::SimConfig& cfg = w.probe_cfg;
  ProbeResult r;
  r.memsys_lookup_ns = probe_lookup(cfg.arch, seed);
  r.memsys_invalidate_page_ns = probe_invalidate(cfg, seed);
  r.engine_event_ns = probe_events(cfg, seed);
  r.svm_vclock_merge_ns = probe_vclock(cfg, seed);
  r.svm_diff_page_ns = probe_diff(cfg, seed);
  r.core_build_us = probe_build(cfg);
  r.apps_setup_us = probe_app_setup(w);
  return r;
}

}  // namespace perfbench
