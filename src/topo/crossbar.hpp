// Crossbar backend: the paper's contention-free network as a Topology.
//
// Exists to prove the topology plumbing is observationally inert: with
// contended() == false, Network::transmit() takes the very same legacy code
// path (same latency formula, same wire key, same delivery closure), so a
// --topology=crossbar run is byte-identical to a run with no topology at
// all — tests/test_inertness.cpp diffs the two. No links are
// allocated: an n-port crossbar has no shared wires to contend on, and the
// n^2 virtual circuits would only burn memory at 256+ nodes.
#pragma once

#include "topo/topology.hpp"

namespace svmsim::topo {

class Crossbar final : public Topology {
 public:
  Crossbar(const ArchParams& arch, engine::Simulator& sim) noexcept
      : Topology(arch, sim) {}

  [[nodiscard]] const char* name() const noexcept override {
    return "crossbar";
  }
  [[nodiscard]] bool contended() const noexcept override { return false; }
  void route(NodeId, NodeId, RouteBuf& out) const noexcept override {
    out.hops = 0;
  }
};

}  // namespace svmsim::topo
