#include "core/node.hpp"

#include <algorithm>
#include <utility>

#include "engine/choice.hpp"
#include "trace/trace.hpp"

namespace svmsim {

Node::Node(engine::Simulator& sim, const SimConfig& cfg, NodeId id, int procs,
           ProcId first_proc, net::Network& network, Stats& stats)
    : sim_(&sim),
      cfg_(&cfg),
      id_(id),
      counters_(&stats.counters()),
      membus_(sim, cfg.arch) {
  std::vector<net::Nic*> nic_ptrs;
  for (int k = 0; k < std::max(1, cfg.comm.nics_per_node); ++k) {
    nics_.push_back(std::make_unique<net::Nic>(sim, cfg.arch, cfg.comm, id, k,
                                               membus_, *counters_));
    network.add_nic(*nics_.back());
    nic_ptrs.push_back(nics_.back().get());
  }
  comm_ = std::make_unique<net::NodeComm>(sim, id, std::move(nic_ptrs),
                                          *counters_);
  procs_.reserve(static_cast<std::size_t>(procs));
  for (int i = 0; i < procs; ++i) {
    const ProcId gid = first_proc + i;
    procs_.push_back(std::make_unique<Processor>(sim, cfg, gid, i, id,
                                                 membus_, stats.proc(gid)));
  }
}

Processor& Node::pick_interrupt_victim() {
  // Round-robin delivery for the rotating scheme; polling also rotates
  // (whichever processor's poll loop finds the request services it). A
  // schedule-choice hook may override the rotating default with any legal
  // victim — which processor's poll loop wins the race is not determined by
  // the model — but the rotation still advances by one either way, so the
  // decision stream stays aligned with the baseline schedule.
  if (cfg_->comm.interrupt_scheme != InterruptScheme::kFixedProcessor) {
    int idx = rr_next_;
    rr_next_ = (rr_next_ + 1) % static_cast<int>(procs_.size());
    engine::ChoiceHook* hook = sim_->choice_hook();
    if (hook != nullptr && procs_.size() > 1) [[unlikely]] {
      idx = hook->choose_victim(id_, static_cast<int>(procs_.size()), idx);
    }
    return *procs_[static_cast<std::size_t>(idx)];
  }
  return *procs_.front();  // paper's base scheme: always processor 0
}

void Node::wire(svm::SvmAgent& agent) {
  comm_->interrupt_dispatch =
      [this](std::function<engine::Task<void>()> body) {
        if (cfg_->comm.interrupt_scheme == InterruptScheme::kPolling) {
          ++counters_->polled_requests;
          // No interrupt: the request sits until a processor's next poll
          // tick notices it (paper §10's polling proposal).
          const Cycles interval = std::max<Cycles>(1, cfg_->comm.poll_interval);
          Cycles next_tick = (sim_->now() / interval + 1) * interval;
          // A schedule-choice hook may slip the dispatch one interval: the
          // arrival racing an in-flight poll that has already passed the
          // check is a real interleaving the deterministic model collapses.
          engine::ChoiceHook* hook = sim_->choice_hook();
          if (hook != nullptr && hook->choose_poll_slip(id_)) [[unlikely]] {
            next_tick += interval;
          }
          sim_->queue().schedule_at(
              next_tick, [this, body = std::move(body)]() mutable {
                Processor& victim = pick_interrupt_victim();
                SVMSIM_TRACE_EVENT(*sim_, trace::Category::kIrq,
                                   trace::Event::kPollDeliver, victim.id(),
                                   id_, 0, 0);
                victim.service_polled(std::move(body));
              });
          return;
        }
        ++counters_->interrupts;
        Processor& victim = pick_interrupt_victim();
        SVMSIM_TRACE_EVENT(*sim_, trace::Category::kIrq,
                           trace::Event::kIrqIssue, victim.id(), id_, 0, 0);
        victim.service_interrupt(std::move(body));
      };
  agent.invalidate_caches = [this](std::uint64_t addr, std::uint64_t len) {
    invalidate_caches(addr, len);
  };
}

void Node::invalidate_caches(std::uint64_t addr, std::uint64_t len) {
  for (auto& p : procs_) {
    p->mem().invalidate_range(addr, len);
  }
}

}  // namespace svmsim
