#include "core/machine.hpp"

#include <bit>
#include <stdexcept>
#include <utility>

#include "check/checker.hpp"
#include "engine/task.hpp"
#include "trace/trace.hpp"

namespace svmsim {

Machine::Machine(const SimConfig& cfg)
    : cfg_(cfg),
      stats_(cfg.comm.total_procs),
      pools_(sim_),
      space_(cfg.comm.node_count(), cfg.comm.page_bytes),
      shared_(sim_, cfg.comm.node_count(), kMaxLocks),
      network_(sim_, cfg_.arch) {
  if (const std::string err = cfg_.arch.validate(); !err.empty()) {
    throw std::invalid_argument("arch: " + err);
  }
  if (!std::has_single_bit(cfg.comm.page_bytes)) {
    throw std::invalid_argument("page_bytes must be a power of two");
  }
  if (cfg.comm.total_procs % cfg.comm.procs_per_node != 0) {
    throw std::invalid_argument(
        "total_procs must be a multiple of procs_per_node");
  }
  if (cfg_.trace.enabled) {
    tracer_ = std::make_unique<trace::Tracer>(
        cfg_.trace, cfg_.comm.total_procs, cfg_.comm.node_count());
    sim_.set_tracer(tracer_.get());
  }
  if (cfg_.check.enabled) {
    checker_ = std::make_unique<check::Checker>(cfg_.check, space_);
    sim_.set_checker(checker_.get());
  }

  const int nodes = cfg_.comm.node_count();
  if (cfg_.topology.kind != topo::Kind::kLegacy) {
    // Throws std::invalid_argument when the spec does not fit `nodes`
    // (bench CLIs pre-check with topo::fits and exit kExitBadTopology).
    topo_ = topo::make_topology(cfg_.topology, cfg_.arch, nodes, sim_);
    network_.set_topology(topo_.get());
  }

  // NIC service loops spawned in the Node constructors register in the
  // machine's frame registry, so teardown can destroy them.
  engine::ScopedFrameRegistry scope(registry_);
  nodes_.reserve(static_cast<std::size_t>(nodes));
  agents_.reserve(static_cast<std::size_t>(nodes));
  for (NodeId n = 0; n < nodes; ++n) {
    nodes_.push_back(std::make_unique<Node>(
        sim_, cfg_, n, cfg_.comm.procs_per_node,
        n * cfg_.comm.procs_per_node, network_, stats_));
  }
  for (NodeId n = 0; n < nodes; ++n) {
    Node& nd = *nodes_[static_cast<std::size_t>(n)];
    std::unique_ptr<svm::SvmAgent> agent;
    if (cfg_.comm.protocol == Protocol::kAURC) {
      agent = std::make_unique<svm::AurcAgent>(
          sim_, cfg_, n, cfg_.comm.procs_per_node, space_, shared_, pools_,
          nd.comm(), stats_.counters());
    } else {
      agent = std::make_unique<svm::HlrcAgent>(
          sim_, cfg_, n, cfg_.comm.procs_per_node, space_, shared_, pools_,
          nd.comm(), stats_.counters());
    }
    agent->install();
    nd.wire(*agent);
    agents_.push_back(std::move(agent));
  }
}

void Machine::finalize_stats() {
  if (topo_ == nullptr || topo_->link_count() == 0) return;
  std::vector<LinkUse> links;
  links.reserve(topo_->link_count());
  for (std::size_t i = 0; i < topo_->link_count(); ++i) {
    const topo::Link& L = topo_->link(i);
    LinkUse u;
    u.id = static_cast<std::int32_t>(i);
    u.owner = L.owner;
    u.kind = static_cast<std::int8_t>(L.kind);
    u.grants = L.server.grants();
    u.busy = L.server.busy_cycles();
    u.wait = L.wait_cycles;
    u.bytes = L.bytes;
    links.push_back(u);
  }
  stats_.set_links(std::move(links));
}

void Machine::debug_write(svm::GlobalAddr a, const void* src,
                          std::uint64_t bytes) {
  space_.debug_write(a, src, bytes);
  if (checker_) checker_->on_debug_write(a, src, bytes);
}

Machine::~Machine() {
  // Scheduled closures (e.g. in-flight transmits of an aborted run) can hold
  // pooled references into the protocol pools; drop them before the pools
  // go away. Then destroy still-suspended coroutines (NIC service loops,
  // processes blocked on a sync object in an abandoned run) so their frames
  // release pooled refs and frame memory while the objects they reference
  // are still alive.
  sim_.queue().clear();
  registry_.destroy_all();
}

}  // namespace svmsim
