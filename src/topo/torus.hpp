// 2D/3D torus with dimension-order (e-cube) routing.
//
// Each node owns a router with two directed ring links per dimension (+ and
// - contend independently) plus the host's injection/ejection pair. A
// packet walks dimension 0 first, then 1, then 2, always taking the shorter
// way around the ring (ties break toward +), so the hop count is exactly
// the Manhattan distance with wraparound plus the two host links — the
// analytic property tests/test_topology.cpp checks.
#pragma once

#include "topo/topology.hpp"

namespace svmsim::topo {

class Torus final : public Topology {
 public:
  /// Throws std::invalid_argument when the extents do not multiply to
  /// `nodes` or the diameter exceeds Topology::kMaxHops.
  Torus(const ArchParams& arch, engine::Simulator& sim, int nodes,
        std::array<int, 3> dims);

  [[nodiscard]] const char* name() const noexcept override { return "torus"; }
  void route(NodeId src, NodeId dst, RouteBuf& out) const noexcept override;

 private:
  // Per-node link slots: 0 inject, 1 eject, 2+2d the +direction ring link
  // of dimension d, 3+2d the -direction one. Links are created in node
  // major order, so id(node, slot) = node*stride_ + slot.
  [[nodiscard]] LinkId id(int node, int slot) const noexcept {
    return static_cast<LinkId>(node * stride_ + slot);
  }

  std::array<int, 3> dims_;
  int ndims_;
  int stride_;
};

}  // namespace svmsim::topo
