#include "core/params.hpp"

#include <bit>
#include <sstream>

namespace svmsim {

std::string to_string(Protocol p) {
  switch (p) {
    case Protocol::kHLRC:
      return "HLRC";
    case Protocol::kAURC:
      return "AURC";
  }
  return "?";
}

namespace {

/// What memsys::Cache cannot model about one cache level: its set index is
/// a shift and a mask, and each way keeps two flag bits in the low bits of
/// a line-aligned address.
std::string validate_cache(const char* name, const CacheParams& c) {
  const std::string n = name;
  if (c.line_bytes < 8 || !std::has_single_bit(c.line_bytes)) {
    return n + ".line_bytes must be a power of two >= 8";
  }
  if (c.associativity == 0) return n + ".associativity must be nonzero";
  const std::uint64_t set_bytes =
      std::uint64_t{c.line_bytes} * c.associativity;
  if (c.size_bytes % set_bytes != 0 ||
      !std::has_single_bit(c.size_bytes / set_bytes)) {
    return n + " set count (size_bytes / (line_bytes * associativity)) "
               "must be a power of two";
  }
  return {};
}

}  // namespace

std::string ArchParams::validate() const {
  if (std::string err = validate_cache("l1", l1); !err.empty()) return err;
  if (std::string err = validate_cache("l2", l2); !err.empty()) return err;
  // ProcMemory probes both levels with one line address.
  if (l1.line_bytes != l2.line_bytes) {
    return "l1.line_bytes and l2.line_bytes must be equal";
  }
  if (wb_entries == 0) return "wb_entries must be nonzero";
  // !(x > 0) instead of x <= 0: a NaN bandwidth must fail too.
  if (!(link_bytes_per_cycle > 0.0)) {
    return "link_bytes_per_cycle must be > 0";
  }
  if (!(intra_link_bytes_per_cycle > 0.0)) {
    return "intra_link_bytes_per_cycle must be > 0";
  }
  if (!(inter_link_bytes_per_cycle > 0.0)) {
    return "inter_link_bytes_per_cycle must be > 0";
  }
  if (wire_latency_cycles == 0) return "wire_latency_cycles must be nonzero";
  if (intra_hop_latency_cycles == 0) {
    return "intra_hop_latency_cycles must be nonzero";
  }
  if (inter_hop_latency_cycles == 0) {
    return "inter_hop_latency_cycles must be nonzero";
  }
  return {};
}

std::string to_string(InterruptScheme s) {
  switch (s) {
    case InterruptScheme::kFixedProcessor:
      return "fixed-proc0";
    case InterruptScheme::kRoundRobin:
      return "round-robin";
    case InterruptScheme::kPolling:
      return "polling";
  }
  return "?";
}

CommParams CommParams::achievable() {
  CommParams p;
  p.host_overhead = 500;
  p.io_bus_mb_per_mhz = 0.5;  // 100 MB/s at 200 MHz
  p.ni_occupancy = 1000;
  p.interrupt_cost = 500;  // null interrupt: 1000 cycles
  return p;
}

CommParams CommParams::best() {
  CommParams p;
  p.host_overhead = 0;
  p.io_bus_mb_per_mhz = 2.0;  // == memory bus bandwidth
  p.ni_occupancy = 0;
  p.interrupt_cost = 0;
  return p;
}

std::string CommParams::describe() const {
  std::ostringstream os;
  os << to_string(protocol) << " o=" << host_overhead
     << " bw=" << io_bus_mb_per_mhz << "MB/MHz occ=" << ni_occupancy
     << " intr=" << interrupt_cost << " page=" << page_bytes
     << " procs/node=" << procs_per_node << "x" << node_count();
  return os.str();
}

}  // namespace svmsim
