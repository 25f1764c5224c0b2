#include "sim/fluid.hpp"

#include <algorithm>

#include "sim/shard.hpp"

namespace sim {

FluidEngine::FluidEngine(ShardedSimulator& engine)
    : engine_(engine),
      last_advance_(engine.now()),
      last_probe_(engine.now()) {}

Time FluidEngine::now() const { return engine_.now(); }

FluidEngine::LinkId FluidEngine::add_link(double capacity_gbps) {
  LinkState ls;
  ls.capacity_gbps = capacity_gbps;
  links_.push_back(std::move(ls));
  return LinkId(links_.size() - 1);
}

void FluidEngine::set_packet_probe(LinkId link,
                                   std::function<std::uint64_t()> probe) {
  links_[link].probe_last = probe ? probe() : 0;
  links_[link].probe = std::move(probe);
}

void FluidEngine::set_rate_observer(LinkId link,
                                    std::function<void(double)> obs) {
  links_[link].observer = std::move(obs);
}

FluidEngine::FlowId FluidEngine::add_flow(FlowSpec spec) {
  advance_to_now();
  FlowState fs;
  fs.route = std::move(spec.route);
  fs.demand_gbps = spec.demand_gbps;
  flows_.push_back(std::move(fs));
  update();
  return FlowId(flows_.size() - 1);
}

void FluidEngine::pause_flow(FlowId id) {
  FlowState& f = flows_[id];
  if (f.paused) return;
  advance_to_now();
  f.paused = true;
  f.rate_gbps = 0;
  update();
}

void FluidEngine::resume_flow(FlowId id) {
  FlowState& f = flows_[id];
  if (!f.paused) return;
  advance_to_now();
  f.paused = false;
  update();
}

bool FluidEngine::any_running() const {
  return std::any_of(flows_.begin(), flows_.end(),
                     [](const FlowState& f) { return !f.paused; });
}

void FluidEngine::advance_to_now() {
  const Time t = now();
  if (t <= last_advance_) {
    last_advance_ = t;
    return;
  }
  const double dt_ns = double((t - last_advance_).ns());
  for (FlowState& f : flows_) {
    if (f.paused || f.rate_gbps <= 0) continue;
    // rate [Gbps] = bits/ns, so bytes = rate * dt / 8.
    const double exact = f.rate_gbps * dt_ns / 8.0 + f.frac;
    const auto whole = std::uint64_t(exact);
    f.frac = exact - double(whole);
    fluid_bytes_total_ += whole;
  }
  last_advance_ = t;
}

void FluidEngine::sample_probes(Time at) {
  if (at <= last_probe_) return;
  const double dt_ns = double((at - last_probe_).ns());
  for (LinkState& l : links_) {
    if (!l.probe) continue;
    const std::uint64_t total = l.probe();
    const std::uint64_t delta =
        total > l.probe_last ? total - l.probe_last : 0;
    l.probe_last = total;
    l.packet_gbps = double(delta) * 8.0 / dt_ns;
  }
  last_probe_ = at;
}

void FluidEngine::recompute_rates() {
  // Demand-capped max-min fairness by progressive filling: repeatedly
  // find the bottleneck link (smallest equal-share of its residual
  // capacity among its unfrozen flows), freeze those flows at that
  // share, subtract, and continue. Flows whose demand cap is below every
  // candidate share freeze at their demand. O(flows * links) per round,
  // rounds <= flows; the graphs here are tiny (hosts + trunks).
  struct Work {
    double residual;
    int active = 0;
  };
  std::vector<Work> work(links_.size());
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const LinkState& l = links_[i];
    work[i].residual = std::max(0.0, l.capacity_gbps - l.packet_gbps);
  }
  std::vector<FlowId> unfrozen;
  for (FlowId id = 0; id < flows_.size(); ++id) {
    FlowState& f = flows_[id];
    if (f.paused) {
      f.rate_gbps = 0;
      continue;
    }
    unfrozen.push_back(id);
    for (LinkId l : f.route) ++work[l].active;
  }

  while (!unfrozen.empty()) {
    // Bottleneck share this round: min over links of residual/active.
    double share = -1;
    for (const Work& w : work) {
      if (w.active == 0) continue;
      const double s = w.residual / w.active;
      if (share < 0 || s < share) share = s;
    }
    if (share < 0) share = 0;

    // Demand-capped flows below the share freeze first; if none, freeze
    // the flows crossing a bottleneck link at the share itself.
    std::vector<FlowId> frozen;
    for (FlowId id : unfrozen) {
      if (flows_[id].demand_gbps > 0 && flows_[id].demand_gbps <= share) {
        flows_[id].rate_gbps = flows_[id].demand_gbps;
        frozen.push_back(id);
      }
    }
    if (frozen.empty()) {
      for (FlowId id : unfrozen) {
        bool bottlenecked = false;
        for (LinkId l : flows_[id].route) {
          const Work& w = work[l];
          if (w.active > 0 && w.residual / w.active <= share + 1e-12) {
            bottlenecked = true;
            break;
          }
        }
        if (bottlenecked) {
          flows_[id].rate_gbps = share;
          frozen.push_back(id);
        }
      }
    }
    if (frozen.empty()) {
      // Numerical corner: freeze everything at the share and stop.
      for (FlowId id : unfrozen) flows_[id].rate_gbps = share;
      frozen = unfrozen;
    }

    for (FlowId id : frozen) {
      for (LinkId l : flows_[id].route) {
        work[l].residual =
            std::max(0.0, work[l].residual - flows_[id].rate_gbps);
        --work[l].active;
      }
    }
    std::vector<FlowId> next;
    next.reserve(unfrozen.size());
    for (FlowId id : unfrozen) {
      if (std::find(frozen.begin(), frozen.end(), id) == frozen.end()) {
        next.push_back(id);
      }
    }
    unfrozen = std::move(next);
  }

  for (LinkState& l : links_) l.fluid_gbps = 0;
  for (const FlowState& f : flows_) {
    if (f.paused) continue;
    for (LinkId l : f.route) links_[l].fluid_gbps += f.rate_gbps;
  }
}

void FluidEngine::push_observers() {
  for (LinkState& l : links_) {
    if (l.observer) l.observer(l.fluid_gbps);
  }
}

void FluidEngine::update() {
  sample_probes(now());
  recompute_rates();
  push_observers();
  schedule_wakeup();
}

void FluidEngine::schedule_wakeup() {
  if (stopped_ || !any_running()) return;
  const Time t = now();
  const Time want = t + kTick;
  // Wakeups are never cancelled (globals can't be); if one is already
  // pending at or before `want` it will re-evaluate then. A stale
  // wakeup after state changed just advances accrual (possibly dt=0)
  // and reschedules — deterministic either way.
  if (next_wake_ != Time::max() && next_wake_ <= want && next_wake_ > t) {
    return;
  }
  next_wake_ = want;
  engine_.schedule_global(want, [this] { on_wake(); });
}

void FluidEngine::on_wake() {
  next_wake_ = Time::max();
  if (stopped_) return;
  advance_to_now();
  update();
}

}  // namespace sim
