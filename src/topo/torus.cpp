#include "topo/torus.hpp"

#include <stdexcept>
#include <string>

namespace svmsim::topo {

Torus::Torus(const ArchParams& arch, engine::Simulator& sim, int nodes,
             std::array<int, 3> dims)
    : Topology(arch, sim), dims_(dims) {
  if (dims_[2] <= 0) dims_[2] = 1;
  ndims_ = dims_[2] > 1 ? 3 : 2;
  stride_ = 2 + 2 * ndims_;
  const long product =
      static_cast<long>(dims_[0]) * dims_[1] * dims_[2];
  if (dims_[0] < 1 || dims_[1] < 1 || product != nodes) {
    throw std::invalid_argument(
        "torus extents " + std::to_string(dims_[0]) + "x" +
        std::to_string(dims_[1]) + "x" + std::to_string(dims_[2]) +
        " do not multiply to " + std::to_string(nodes) + " nodes");
  }
  int diameter = 2;  // inject + eject
  for (int d = 0; d < ndims_; ++d) diameter += dims_[d] / 2;
  if (diameter > kMaxHops) {
    throw std::invalid_argument(
        "torus diameter " + std::to_string(diameter) + " exceeds " +
        std::to_string(kMaxHops) + " hops; use squarer extents");
  }

  for (int n = 0; n < nodes; ++n) {
    add_link(n, LinkKind::kInject);
    add_link(n, LinkKind::kEject);
    for (int d = 0; d < ndims_; ++d) {
      add_link(n, LinkKind::kRing);  // +direction out of n
      add_link(n, LinkKind::kRing);  // -direction out of n
    }
  }
}

void Torus::route(NodeId src, NodeId dst, RouteBuf& out) const noexcept {
  out.hops = 0;
  out.push(id(src, 0));  // inject

  int cur[3];
  int end[3];
  int rem_s = src;
  int rem_d = dst;
  for (int d = 0; d < 3; ++d) {
    cur[d] = rem_s % dims_[static_cast<std::size_t>(d)];
    end[d] = rem_d % dims_[static_cast<std::size_t>(d)];
    rem_s /= dims_[static_cast<std::size_t>(d)];
    rem_d /= dims_[static_cast<std::size_t>(d)];
  }

  for (int d = 0; d < ndims_; ++d) {
    const int n = dims_[static_cast<std::size_t>(d)];
    const int fwd = (end[d] - cur[d] + n) % n;
    const int bwd = (cur[d] - end[d] + n) % n;
    const bool pos = fwd <= bwd;  // shorter way round; ties toward +
    const int steps = pos ? fwd : bwd;
    for (int i = 0; i < steps; ++i) {
      // The ring link out of the current node in the chosen direction.
      int node = cur[0] + dims_[0] * (cur[1] + dims_[1] * cur[2]);
      out.push(id(node, 2 + 2 * d + (pos ? 0 : 1)));
      cur[d] = pos ? (cur[d] + 1) % n : (cur[d] + n - 1) % n;
    }
  }
  out.push(id(dst, 1));  // eject
}

}  // namespace svmsim::topo
