// End-to-end SVM protocol tests: coherence through barriers and locks, for
// both HLRC and AURC, across node configurations. These run real data
// through the full machine (caches, NIC, protocol agents).
#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include "common.hpp"

namespace svmsim::test {
namespace {

using apps::Distribution;
using apps::GlobalAddr;
using apps::SharedArray;
using apps::Shm;

struct ProtoParam {
  Protocol proto;
  int total;
  int ppn;
};

class ProtocolMatrix : public ::testing::TestWithParam<ProtoParam> {};

/// Every processor writes a slice, barrier, everyone verifies all slices.
TEST_P(ProtocolMatrix, BarrierPublishesWrites) {
  auto [proto, total, ppn] = GetParam();
  SimConfig cfg = config_with(total, ppn, proto);
  constexpr int kN = 512;
  SharedArray<double> arr;
  bool ok = true;

  LambdaWorkload w(
      "barrier-publish",
      [&](Machine& m) {
        arr = SharedArray<double>::alloc(m, kN, Distribution::block());
        for (int i = 0; i < kN; ++i) arr.debug_put(m, i, -1.0);
      },
      [&](Machine& m, ProcId pid) -> engine::Task<void> {
        Shm shm(m, pid);
        const int P = shm.nprocs();
        for (int it = 0; it < 3; ++it) {
          for (int i = pid * kN / P; i < (pid + 1) * kN / P; ++i) {
            co_await arr.put(shm, i, it * 1e4 + i);
          }
          co_await shm.barrier();
          for (int i = 0; i < kN; ++i) {
            const double v = co_await arr.get(shm, i);
            if (v != it * 1e4 + i) ok = false;
          }
          co_await shm.barrier();
        }
      });
  auto r = run(w, cfg);
  EXPECT_TRUE(ok);
  EXPECT_TRUE(r.validated);
}

/// Lock-protected read-modify-write chains must never lose an update
/// (integer-exact; this was the reproducer for two protocol races).
TEST_P(ProtocolMatrix, LockedAccumulationIsExact) {
  auto [proto, total, ppn] = GetParam();
  SimConfig cfg = config_with(total, ppn, proto);
  constexpr int kSlots = 64;
  SharedArray<long long> acc;

  LambdaWorkload w(
      "locked-accumulate",
      [&](Machine& m) {
        acc = SharedArray<long long>::alloc(m, kSlots, Distribution::block());
        for (int i = 0; i < kSlots; ++i) acc.debug_put(m, i, 0LL);
      },
      [&](Machine& m, ProcId pid) -> engine::Task<void> {
        Shm shm(m, pid);
        const int P = shm.nprocs();
        for (int it = 0; it < 2; ++it) {
          for (int k = 0; k < P; ++k) {
            const int target = (pid + k) % P;
            co_await shm.lock(100 + target);
            for (int i = target * kSlots / P; i < (target + 1) * kSlots / P;
                 ++i) {
              const long long v = co_await acc.get(shm, i);
              co_await acc.put(shm, i, v + 1 + pid);
            }
            co_await shm.unlock(100 + target);
          }
          co_await shm.barrier();
        }
      },
      [&](Machine& m) {
        long long want = 0;
        for (int p = 0; p < total; ++p) want += 1 + p;
        want *= 2;
        for (int i = 0; i < kSlots; ++i) {
          if (acc.debug_get(m, i) != want) return false;
        }
        return true;
      });
  auto r = run(w, cfg);
  EXPECT_TRUE(r.validated);
}

/// Producer/consumer through a lock: release-acquire must order the data.
TEST_P(ProtocolMatrix, LockReleaseOrdersData) {
  auto [proto, total, ppn] = GetParam();
  if (total < 2) GTEST_SKIP();
  SimConfig cfg = config_with(total, ppn, proto);
  SharedArray<int> data;
  SharedArray<int> flag;
  bool ok = true;

  LambdaWorkload w(
      "producer-consumer",
      [&](Machine& m) {
        data = SharedArray<int>::alloc(m, 256, Distribution::fixed(0));
        flag = SharedArray<int>::alloc(m, 1, Distribution::fixed(0));
        for (int i = 0; i < 256; ++i) data.debug_put(m, i, 0);
        flag.debug_put(m, 0, 0);
      },
      [&](Machine& m, ProcId pid) -> engine::Task<void> {
        Shm shm(m, pid);
        const int rounds = 6;
        if (pid == 0) {
          for (int r = 1; r <= rounds; ++r) {
            for (int i = 0; i < 256; ++i) co_await data.put(shm, i, r * 1000 + i);
            co_await shm.lock(5);
            co_await flag.put(shm, 0, r);
            co_await shm.unlock(5);
          }
        } else if (pid == shm.nprocs() - 1) {
          int seen = 0;
          while (seen < rounds) {
            co_await shm.lock(5);
            const int f = co_await flag.get(shm, 0);
            if (f > seen) {
              seen = f;
              // All of round f's data must be visible under the lock chain.
              for (int i = 0; i < 256; ++i) {
                const int v = co_await data.get(shm, i);
                if (v < seen * 1000 + i) ok = false;
              }
            }
            co_await shm.unlock(5);
            shm.compute(3000);
          }
        }
        co_await shm.barrier();
      });
  auto r = run(w, cfg);
  EXPECT_TRUE(ok);
  EXPECT_TRUE(r.validated);
}

/// False sharing: concurrent writers to disjoint words of the same page.
TEST_P(ProtocolMatrix, FalseSharingMergesAtHome) {
  auto [proto, total, ppn] = GetParam();
  SimConfig cfg = config_with(total, ppn, proto);
  constexpr int kWords = 1000;  // ~one page of ints
  SharedArray<int> arr;

  LambdaWorkload w(
      "false-sharing",
      [&](Machine& m) {
        arr = SharedArray<int>::alloc(m, kWords, Distribution::fixed(0));
        for (int i = 0; i < kWords; ++i) arr.debug_put(m, i, -1);
      },
      [&](Machine& m, ProcId pid) -> engine::Task<void> {
        Shm shm(m, pid);
        const int P = shm.nprocs();
        // Interleaved ownership: adjacent words belong to different procs.
        for (int i = pid; i < kWords; i += P) {
          co_await arr.put(shm, i, pid * 100000 + i);
        }
        co_await shm.barrier();
      },
      [&](Machine& m) {
        for (int i = 0; i < kWords; ++i) {
          if (arr.debug_get(m, i) != (i % total) * 100000 + i) return false;
        }
        return true;
      });
  auto r = run(w, cfg);
  EXPECT_TRUE(r.validated);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ProtocolMatrix,
    ::testing::Values(ProtoParam{Protocol::kHLRC, 2, 1},
                      ProtoParam{Protocol::kHLRC, 4, 2},
                      ProtoParam{Protocol::kHLRC, 8, 4},
                      ProtoParam{Protocol::kHLRC, 16, 4},
                      ProtoParam{Protocol::kHLRC, 16, 8},
                      ProtoParam{Protocol::kAURC, 2, 1},
                      ProtoParam{Protocol::kAURC, 4, 2},
                      ProtoParam{Protocol::kAURC, 16, 4}),
    [](const ::testing::TestParamInfo<ProtoParam>& info) {
      return to_string(info.param.proto) + "_" +
             std::to_string(info.param.total) + "p" +
             std::to_string(info.param.ppn);
    });

TEST(Protocol, SingleWriterPagesNeedNoDiffs) {
  // Block-distributed data written only by its owner: HLRC needs no twins
  // for home pages (the paper's "regular application" property).
  SimConfig cfg = config_with(4, 1);
  SharedArray<double> arr;
  LambdaWorkload w(
      "single-writer",
      [&](Machine& m) {
        arr = SharedArray<double>::alloc(m, 2048, Distribution::block());
      },
      [&](Machine& m, ProcId pid) -> engine::Task<void> {
        Shm shm(m, pid);
        const int P = shm.nprocs();
        for (int i = pid * 2048 / P; i < (pid + 1) * 2048 / P; ++i) {
          co_await arr.put(shm, i, i);
        }
        co_await shm.barrier();
      });
  auto r = run(w, cfg);
  EXPECT_EQ(r.stats.counters().twins_created, 0u);
  EXPECT_EQ(r.stats.counters().diffs_created, 0u);
}

TEST(Protocol, RemoteWriterCreatesTwinAndDiff) {
  SimConfig cfg = config_with(2, 1);
  SharedArray<double> arr;
  LambdaWorkload w(
      "remote-writer",
      [&](Machine& m) {
        arr = SharedArray<double>::alloc(m, 64, Distribution::fixed(0));
      },
      [&](Machine& m, ProcId pid) -> engine::Task<void> {
        Shm shm(m, pid);
        if (pid == 1) {
          for (int i = 0; i < 64; ++i) co_await arr.put(shm, i, i);
        }
        co_await shm.barrier();
      });
  auto r = run(w, cfg);
  EXPECT_EQ(r.stats.counters().twins_created, 1u);
  EXPECT_EQ(r.stats.counters().diffs_created, 1u);
  EXPECT_GT(r.stats.counters().diff_bytes, 64u * 8u);
}

TEST(Protocol, AurcSendsUpdatesInsteadOfDiffs) {
  SimConfig cfg = config_with(2, 1, Protocol::kAURC);
  SharedArray<double> arr;
  LambdaWorkload w(
      "aurc-updates",
      [&](Machine& m) {
        arr = SharedArray<double>::alloc(m, 64, Distribution::fixed(0));
      },
      [&](Machine& m, ProcId pid) -> engine::Task<void> {
        Shm shm(m, pid);
        if (pid == 1) {
          for (int i = 0; i < 64; ++i) co_await arr.put(shm, i, i);
        }
        co_await shm.barrier();
      },
      [&](Machine& m) {
        for (int i = 0; i < 64; ++i) {
          if (arr.debug_get(m, i) != i) return false;
        }
        return true;
      });
  auto r = run(w, cfg);
  EXPECT_TRUE(r.validated);
  EXPECT_EQ(r.stats.counters().diffs_created, 0u);
  EXPECT_GT(r.stats.counters().updates_sent, 0u);
  EXPECT_GE(r.stats.counters().update_bytes, 64u * 8u);
}

TEST(Protocol, AurcCoalescesSequentialWrites) {
  // 64 sequential 8-byte writes coalesce into one update run.
  SimConfig cfg = config_with(2, 1, Protocol::kAURC);
  SharedArray<double> arr;
  LambdaWorkload w(
      "aurc-coalesce",
      [&](Machine& m) {
        arr = SharedArray<double>::alloc(m, 64, Distribution::fixed(0));
      },
      [&](Machine& m, ProcId pid) -> engine::Task<void> {
        Shm shm(m, pid);
        if (pid == 1) {
          std::vector<double> buf(64);
          for (int i = 0; i < 64; ++i) buf[static_cast<std::size_t>(i)] = i;
          co_await arr.put_block(shm, 0, buf.data(), 64);
        }
        co_await shm.barrier();
      });
  auto r = run(w, cfg);
  EXPECT_EQ(r.stats.counters().updates_sent, 1u);
}

TEST(Protocol, AurcScatteredWritesProduceManyUpdates) {
  SimConfig cfg = config_with(2, 1, Protocol::kAURC);
  SharedArray<double> arr;
  LambdaWorkload w(
      "aurc-scatter",
      [&](Machine& m) {
        arr = SharedArray<double>::alloc(m, 512, Distribution::fixed(0));
      },
      [&](Machine& m, ProcId pid) -> engine::Task<void> {
        Shm shm(m, pid);
        if (pid == 1) {
          for (int i = 0; i < 512; i += 16) {  // strided: no coalescing
            co_await arr.put(shm, i, i);
          }
        }
        co_await shm.barrier();
      });
  auto r = run(w, cfg);
  EXPECT_GE(r.stats.counters().updates_sent, 30u);
}

TEST(Protocol, DisableRemoteFetchesSkipsMessages) {
  SimConfig cfg = config_with(4, 2);
  cfg.disable_remote_fetches = true;
  SharedArray<double> arr;
  bool ok = true;
  LambdaWorkload w(
      "no-remote-fetch",
      [&](Machine& m) {
        arr = SharedArray<double>::alloc(m, 512, Distribution::fixed(0));
        for (int i = 0; i < 512; ++i) arr.debug_put(m, i, 3.5 * i);
      },
      [&](Machine& m, ProcId pid) -> engine::Task<void> {
        Shm shm(m, pid);
        for (int i = 0; i < 512; ++i) {
          if (co_await arr.get(shm, i) != 3.5 * i) ok = false;
        }
        co_await shm.barrier();
      });
  auto r = run(w, cfg);
  EXPECT_TRUE(ok);
  EXPECT_GT(r.stats.counters().page_fetches, 0u);
  // Fetches are satisfied locally: no page request/reply traffic beyond
  // barrier messages.
  EXPECT_LE(r.stats.counters().messages_sent, 16u);
}

// ---------------------------------------------------------------------------
// Hit-path differential: a scalar access through Shm/SharedArray may finish
// synchronously (SvmAgent::try_read/try_write, and read_tail after a line
// miss); awaiting SvmAgent::read/write directly always takes the coroutine
// path. Two fresh machines run one access script, one each way, and must
// agree on every value read, every processor's Breakdown, the Counters, the
// event count and the final times.

/// A 16-byte value: at a line or page end it straddles the boundary.
struct Wide {
  std::uint64_t lo;
  std::uint64_t hi;
};

struct ScriptRun {
  RunResult result;
  std::vector<std::vector<std::uint64_t>> values;  ///< per processor
  std::vector<Cycles> end_times;                   ///< local clock at exit
  /// Per processor at exit: L1 hits, L1 misses, L2 hits, L2 misses (a
  /// missed line probed twice shows up here, not in the Stats).
  std::vector<std::vector<std::uint64_t>> cache_counts;
  // Cases the script reached, seen by side-effect-free probes before the
  // access (a loaded line still resident, page states).
  int line_tail_loads = 0;     ///< first line cached, second not: read_tail
  int page_straddles = 0;      ///< access crossing a page
  int read_only_stores = 0;    ///< store to a kReadOnly page
  int invalid_loads = 0;       ///< load of a kInvalid page
};

/// One access of the script, routed through Shm or straight to the agent.
class ScriptAccess {
 public:
  ScriptAccess(Machine& m, ProcId pid, bool via_shm, ScriptRun& out)
      : m_(m), pid_(pid), via_shm_(via_shm), shm_(m, pid), out_(out) {}

  Shm& shm() { return shm_; }

  svm::PageState state_at(GlobalAddr a) {
    svm::AddressSpace& s = m_.space();
    const NodeId n = m_.node_of(pid_);
    return s.has_copy(n, s.page_of(a)) ? s.copy(n, s.page_of(a)).state
                                        : svm::PageState::kUnmapped;
  }
  bool line_cached(GlobalAddr a) {
    const memsys::ProcMemory& mem = m_.proc(pid_).mem();
    const std::uint64_t line = a / mem.line_bytes() * mem.line_bytes();
    return mem.wb().contains(line) || mem.l1().contains(line) ||
           mem.l2().contains(line);
  }

  template <typename T>
  engine::Task<T> load(GlobalAddr a) {
    note_load(a, sizeof(T));
    T v{};
    if (via_shm_) {
      v = co_await shm_.read<T>(a);
    } else {
      co_await m_.agent_of(pid_).read(m_.proc(pid_), a, &v, sizeof(T));
    }
    record(v);
    co_return v;
  }

  template <typename T>
  engine::Task<void> store(GlobalAddr a, T v) {
    if (state_at(a) == svm::PageState::kReadOnly) ++out_.read_only_stores;
    if (crosses_page(a, sizeof(T))) ++out_.page_straddles;
    if (via_shm_) {
      co_await shm_.write<T>(a, v);
    } else {
      co_await m_.agent_of(pid_).write(m_.proc(pid_), a, &v, sizeof(T));
    }
  }

  /// SharedArray element accesses (the hit path's main entry point).
  engine::Task<std::uint64_t> get(const SharedArray<std::uint64_t>& arr,
                                  std::uint64_t i) {
    if (!via_shm_) co_return co_await load<std::uint64_t>(arr.addr(i));
    note_load(arr.addr(i), sizeof(std::uint64_t));
    const std::uint64_t v = co_await arr.get(shm_, i);
    record(v);
    co_return v;
  }
  engine::Task<void> put(const SharedArray<std::uint64_t>& arr,
                         std::uint64_t i, std::uint64_t v) {
    if (!via_shm_) {
      co_await store<std::uint64_t>(arr.addr(i), v);
      co_return;
    }
    if (state_at(arr.addr(i)) == svm::PageState::kReadOnly) {
      ++out_.read_only_stores;
    }
    co_await arr.put(shm_, i, v);
  }

 private:
  bool crosses_page(GlobalAddr a, std::uint64_t bytes) {
    const svm::AddressSpace& s = m_.space();
    return s.page_of(a) != s.page_of(a + bytes - 1);
  }
  void note_load(GlobalAddr a, std::uint64_t bytes) {
    const svm::PageState st = state_at(a);
    if (st == svm::PageState::kInvalid) ++out_.invalid_loads;
    if (crosses_page(a, bytes)) {
      ++out_.page_straddles;
    } else if ((st == svm::PageState::kReadOnly ||
                st == svm::PageState::kReadWrite) &&
               line_cached(a) && !line_cached(a + bytes - 1)) {
      ++out_.line_tail_loads;
    }
  }
  template <typename T>
  void record(const T& v) {
    std::uint64_t words[(sizeof(T) + 7) / 8] = {};
    std::memcpy(words, &v, sizeof(T));
    auto& log = out_.values[static_cast<std::size_t>(pid_)];
    log.insert(log.end(), std::begin(words), std::end(words));
  }

  Machine& m_;
  ProcId pid_;
  bool via_shm_;
  Shm shm_;
  ScriptRun& out_;
};

/// 4 processors on 2 nodes; 4 pages block-distributed (pages 0-1 homed on
/// node 0, pages 2-3 on node 1).
ScriptRun run_access_script(Protocol proto, bool via_shm) {
  constexpr std::uint64_t kWords = 512;  // u64 per 4 KB page
  constexpr std::uint64_t kLine = 64;
  SimConfig cfg = config_with(4, 2, proto);
  SharedArray<std::uint64_t> data;
  ScriptRun out;
  out.values.resize(4);
  out.end_times.resize(4);
  out.cache_counts.resize(4);

  LambdaWorkload w(
      "hit-path-script",
      [&](Machine& m) {
        data = SharedArray<std::uint64_t>::alloc(m, 4 * kWords,
                                                 Distribution::block());
        for (std::uint64_t i = 0; i < 4 * kWords; ++i) {
          data.debug_put(m, i, 7 * i + 1);
        }
      },
      [&](Machine& m, ProcId pid) -> engine::Task<void> {
        ScriptAccess acc(m, pid, via_shm, out);
        const int node = m.node_of(pid);
        const int lp = pid % 2;
        const std::uint64_t own = node == 0 ? 0 : 2;     // homed here
        const std::uint64_t remote = node == 0 ? 2 : 0;  // homed there
        auto page = [&](std::uint64_t pg) { return data.addr(pg * kWords); };

        // Remote load of an unmapped page (fetch), then a Wide whose first
        // line is cached and whose second line is cold.
        co_await acc.get(data, remote * kWords + 8 * (2 + 4 * lp));
        co_await acc.load<Wide>(page(remote) + kLine * (3 + 4 * lp) - 8);
        // A load and a store that cross a page.
        co_await acc.load<Wide>(page(1) - 8 + 16 * lp);
        if (lp == 0) co_await acc.store<Wide>(page(own + 1) - 8, Wide{3, 4});
        // Home page: mapped read-only by the load, write-faulted by the
        // first store, then stored to read-write.
        co_await acc.get(data, own * kWords + 100 + lp);
        for (std::uint64_t i = 0; i < 32; ++i) {
          co_await acc.put(data, own * kWords + 128 + 64 * lp + i, 1000 + i);
        }
        // The other node reads word 0 of `remote`; writing elsewhere on it
        // leaves that node a write notice to apply at the barrier.
        co_await acc.put(data, remote * kWords + 400 + lp, 50 + pid);
        co_await acc.put(data, (remote + 1) * kWords + 8 * pid, 60 + pid);
        co_await acc.shm().barrier();

        // Invalidated pages refault; then a strided mix of hits and misses
        // over every page (L1 conflicts at the 16 KB stride included).
        co_await acc.get(data, remote * kWords + 8 * (2 + 4 * lp));
        co_await acc.load<std::uint32_t>(page(own + 1) + 12);
        for (std::uint64_t i = 0; i < 96; ++i) {
          // Stop short of the end: the line-end Wide below must stay
          // inside the allocation.
          const std::uint64_t idx = (i * 37 + pid * 11) % (4 * kWords - 8);
          const std::uint64_t v = co_await acc.get(data, idx);
          if (i % 3 == 0) {
            co_await acc.put(data, (idx & ~std::uint64_t{3}) + pid, v + i);
          }
          if (i % 17 == 0) {
            co_await acc.load<Wide>(data.addr(idx) + kLine - 8 -
                                    data.addr(idx) % kLine);
          }
        }
        // Lock-protected read-modify-write of one counter.
        co_await acc.shm().lock(3);
        const std::uint64_t c = co_await acc.get(data, 3 * kWords + 500);
        co_await acc.put(data, 3 * kWords + 500, c + 1);
        co_await acc.shm().unlock(3);
        co_await acc.shm().barrier();

        for (std::uint64_t i = pid; i < 4 * kWords; i += 24) {
          co_await acc.get(data, i);
        }
        const memsys::ProcMemory& mem = m.proc(pid).mem();
        out.end_times[static_cast<std::size_t>(pid)] = m.proc(pid).local_now();
        out.cache_counts[static_cast<std::size_t>(pid)] = {
            mem.l1().hits(), mem.l1().misses(), mem.l2().hits(),
            mem.l2().misses()};
      });
  out.result = run(w, cfg);
  return out;
}

class HitPathDifferential : public ::testing::TestWithParam<Protocol> {};

TEST_P(HitPathDifferential, MatchesCoroutinePath) {
  const ScriptRun hit = run_access_script(GetParam(), /*via_shm=*/true);
  const ScriptRun slow = run_access_script(GetParam(), /*via_shm=*/false);
  EXPECT_EQ(hit.values, slow.values);
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(hit.result.stats.proc(p), slow.result.stats.proc(p))
        << "processor " << p;
  }
  EXPECT_TRUE(hit.result.stats.counters() == slow.result.stats.counters());
  EXPECT_TRUE(hit.result.stats == slow.result.stats);
  EXPECT_EQ(hit.result.events, slow.result.events);
  EXPECT_EQ(hit.result.time, slow.result.time);
  EXPECT_EQ(hit.end_times, slow.end_times);
  EXPECT_EQ(hit.cache_counts, slow.cache_counts);
  // Both runs reach the same cases, and the script covers each of them.
  EXPECT_EQ(hit.line_tail_loads, slow.line_tail_loads);
  EXPECT_EQ(hit.page_straddles, slow.page_straddles);
  EXPECT_EQ(hit.read_only_stores, slow.read_only_stores);
  EXPECT_EQ(hit.invalid_loads, slow.invalid_loads);
  EXPECT_GT(hit.line_tail_loads, 0);
  EXPECT_GT(hit.page_straddles, 0);
  EXPECT_GT(hit.read_only_stores, 0);
  EXPECT_GT(hit.invalid_loads, 0);
  EXPECT_GT(hit.result.stats.counters().page_fetches, 0u);
}

// The differential above compares the two paths with each other; pin the
// absolute probe count too. A load straddling two cold lines of a valid page
// probes each line once: two L1 and two L2 misses, whether it enters through
// Shm (try_read, then read_tail) or SvmAgent::read.
TEST(Protocol, ColdLinesAreProbedOnce) {
  SimConfig cfg = config_with(1, 1);
  SharedArray<std::uint64_t> data;
  std::vector<std::uint64_t> deltas;
  LambdaWorkload w(
      "cold-lines",
      [&](Machine& m) {
        data = SharedArray<std::uint64_t>::alloc(m, 512,
                                                 Distribution::block());
      },
      [&](Machine& m, ProcId pid) -> engine::Task<void> {
        Shm shm(m, pid);
        const memsys::ProcMemory& mem = m.proc(pid).mem();
        co_await data.get(shm, 0);  // maps the page
        auto misses = [&] { return mem.l1().misses() + mem.l2().misses(); };
        std::uint64_t before = misses();
        co_await shm.read<Wide>(data.addr(0) + 3 * 64 - 8);
        deltas.push_back(misses() - before);
        before = misses();
        Wide v{};
        co_await m.agent_of(pid).read(m.proc(pid), data.addr(0) + 6 * 64 - 8,
                                      &v, sizeof v);
        deltas.push_back(misses() - before);
      });
  run(w, cfg);
  EXPECT_EQ(deltas, (std::vector<std::uint64_t>{4, 4}));
}

INSTANTIATE_TEST_SUITE_P(Protocols, HitPathDifferential,
                         ::testing::Values(Protocol::kHLRC, Protocol::kAURC),
                         [](const auto& info) {
                           return info.param == Protocol::kHLRC
                                      ? std::string("HLRC")
                                      : std::string("AURC");
                         });

}  // namespace
}  // namespace svmsim::test
