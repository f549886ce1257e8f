#include "topo/topology.hpp"

#include <stdexcept>

#include "topo/crossbar.hpp"
#include "topo/fat_tree.hpp"
#include "topo/torus.hpp"

namespace svmsim::topo {

std::string_view to_string(LinkKind k) noexcept {
  switch (k) {
    case LinkKind::kInject: return "inject";
    case LinkKind::kEject: return "eject";
    case LinkKind::kUp: return "up";
    case LinkKind::kDown: return "down";
    case LinkKind::kRing: return "ring";
  }
  return "?";
}

LinkId Topology::add_link(NodeId owner, LinkKind kind) {
  const bool intra = kind == LinkKind::kInject || kind == LinkKind::kEject;
  const Cycles lat = intra ? arch_->intra_hop_latency_cycles
                           : arch_->inter_hop_latency_cycles;
  const double bw = intra ? arch_->intra_link_bytes_per_cycle
                          : arch_->inter_link_bytes_per_cycle;
  links_.emplace_back(*sim_, owner, lat, bw, kind);
  return static_cast<LinkId>(links_.size() - 1);
}

bool fits(const Spec& spec, int nodes) noexcept {
  switch (spec.kind) {
    case Kind::kLegacy:
    case Kind::kCrossbar:
      return nodes >= 1;
    case Kind::kFatTree: {
      const int half = spec.fat_k / 2;
      return nodes >= 1 && nodes <= spec.fat_k * half * half;
    }
    case Kind::kTorus: {
      const int z = spec.dims[2] > 0 ? spec.dims[2] : 1;
      return static_cast<long>(spec.dims[0]) * spec.dims[1] * z == nodes;
    }
  }
  return false;
}

std::unique_ptr<Topology> make_topology(const Spec& spec,
                                        const ArchParams& arch, int nodes,
                                        engine::Simulator& sim) {
  switch (spec.kind) {
    case Kind::kLegacy:
    case Kind::kCrossbar:
      return std::make_unique<Crossbar>(arch, sim);
    case Kind::kFatTree:
      return std::make_unique<FatTree>(arch, sim, nodes, spec.fat_k);
    case Kind::kTorus:
      return std::make_unique<Torus>(arch, sim, nodes, spec.dims);
  }
  throw std::invalid_argument("unknown topology kind");
}

}  // namespace svmsim::topo
