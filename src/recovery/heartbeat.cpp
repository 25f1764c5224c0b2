#include "recovery/heartbeat.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sim/digest.hpp"
#include "trio/pfe.hpp"
#include "trio/program.hpp"

namespace recovery {
namespace {

constexpr double kLog10E = 0.4342944819032518;

/// The per-fire heartbeat program: a few bookkeeping instructions, one
/// report to the monitor, exit. It runs on the watched router's PPEs, so
/// heartbeat timing inherits real thread-scheduling jitter — which is
/// exactly what the phi estimator smooths over.
class HeartbeatProgram : public trio::PpeProgram {
 public:
  HeartbeatProgram(HeartbeatMonitor& monitor, int idx)
      : monitor_(monitor), idx_(idx) {}

  trio::Action step(trio::ThreadContext&) override {
    if (!reported_) {
      reported_ = true;
      monitor_.on_heartbeat(idx_);
      return trio::ActContinue{4};
    }
    return trio::ActExit{2};
  }

 private:
  HeartbeatMonitor& monitor_;
  int idx_;
  bool reported_ = false;
};

}  // namespace

void PhiEstimator::observe(sim::Time now) {
  if (samples_ > 0) {
    const double interval = double((now - last_).ns());
    mean_ns_ = samples_ == 1
                   ? interval
                   : (1.0 - alpha_) * mean_ns_ + alpha_ * interval;
  }
  last_ = now;
  ++samples_;
}

double PhiEstimator::phi(sim::Time now) const {
  if (!primed() || mean_ns_ <= 0.0) return 0.0;
  const double elapsed = double((now - last_).ns());
  if (elapsed <= 0.0) return 0.0;
  return kLog10E * elapsed / mean_ns_;
}

HeartbeatMonitor::HeartbeatMonitor(sim::ShardedSimulator& engine,
                                   telemetry::Telemetry& telem,
                                   HeartbeatConfig config)
    : engine_(engine), telem_(telem), config_(config) {
  if (config_.period.ns() <= 0 || config_.check_period.ns() <= 0 ||
      config_.timers <= 0 || config_.phi_threshold <= 0) {
    throw std::invalid_argument("HeartbeatMonitor: bad config");
  }
  telem_.metrics.bind(deaths_declared_, "recovery.deaths_declared");
  telem_.metrics.bind(revivals_detected_, "recovery.revivals_detected");
  telem_.tracer.set_process_name(kTracePid, "recovery");
}

int HeartbeatMonitor::watch(const std::string& name, trio::Router& router) {
  if (running_) {
    throw std::logic_error("HeartbeatMonitor: watch() before start()");
  }
  Watched w;
  w.name = name;
  w.router = &router;
  w.estimator = PhiEstimator(config_.ewma_alpha);
  telem_.metrics.bind(w.beats, "recovery.heartbeats");
  watched_.push_back(std::move(w));
  return static_cast<int>(watched_.size()) - 1;
}

void HeartbeatMonitor::start() {
  if (running_) return;
  running_ = true;
  for (int i = 0; i < watched(); ++i) {
    Watched& w = watched_[std::size_t(i)];
    // The factory runs at every timer fire *on the watched router*: a
    // powered-off chip spawns nothing, so death is observed as silence,
    // not reported by the dying node.
    w.timer_group = w.router->pfe(0).timers().start(
        config_.timers, config_.period,
        [this, i](std::uint32_t) -> trio::ProgramPtr {
          trio::Router& router = *watched_[std::size_t(i)].router;
          if (router.killed()) return nullptr;
          return std::make_unique<HeartbeatProgram>(*this, i);
        });
  }
  schedule_check();
}

void HeartbeatMonitor::stop() {
  if (!running_) return;
  running_ = false;
  ++epoch_;
  for (Watched& w : watched_) {
    if (w.timer_group >= 0) {
      w.router->pfe(0).timers().stop_group(w.timer_group);
      w.timer_group = -1;
    }
  }
}

void HeartbeatMonitor::schedule_check() {
  engine_.schedule_global(engine_.now() + config_.check_period,
                          [this, epoch = epoch_] {
                            if (epoch == epoch_) check();
                          });
}

const std::string& HeartbeatMonitor::name(int idx) const {
  return watched_.at(std::size_t(idx)).name;
}

bool HeartbeatMonitor::dead(int idx) const {
  return watched_.at(std::size_t(idx)).dead;
}

double HeartbeatMonitor::phi_now(int idx) const {
  return watched_.at(std::size_t(idx)).estimator.phi(engine_.now());
}

const PhiEstimator& HeartbeatMonitor::estimator(int idx) const {
  return watched_.at(std::size_t(idx)).estimator;
}

std::uint64_t HeartbeatMonitor::heartbeats() const {
  std::uint64_t n = 0;
  for (const Watched& w : watched_) n += w.beats.value();
  return n;
}

void HeartbeatMonitor::on_heartbeat(int idx) {
  Watched& w = watched_.at(std::size_t(idx));
  const sim::Time now = w.router->simulator().now();
  w.beats.inc();
  w.estimator.observe(now);
  // First heartbeat after a death declaration: the router is back. The
  // next check logs the revival at this instant.
  if (w.dead && w.revived_at == sim::Time::max()) w.revived_at = now;
}

void HeartbeatMonitor::check() {
  // Revivals first, in heartbeat order (then watch order): each happened
  // before this check.
  std::vector<std::pair<sim::Time, int>> revived;
  for (int i = 0; i < watched(); ++i) {
    const sim::Time at = watched_[std::size_t(i)].revived_at;
    if (at != sim::Time::max()) revived.emplace_back(at, i);
  }
  std::sort(revived.begin(), revived.end());
  for (const auto& [at, i] : revived) {
    Watched& w = watched_[std::size_t(i)];
    w.dead = false;
    w.revived_at = sim::Time::max();
    revivals_detected_.inc();
    transition(i, /*dead=*/false, at);
  }
  const sim::Time now = engine_.now();
  for (int i = 0; i < watched(); ++i) {
    Watched& w = watched_[std::size_t(i)];
    if (w.dead || !w.estimator.primed()) continue;
    if (w.estimator.phi(now) >= config_.phi_threshold) {
      w.dead = true;
      deaths_declared_.inc();
      transition(i, /*dead=*/true, now);
    }
  }
  schedule_check();
}

void HeartbeatMonitor::transition(int idx, bool dead, sim::Time at) {
  const std::string what =
      (dead ? "dead " : "revival ") + watched_[std::size_t(idx)].name;
  log_.push_back(LogEntry{at, what});
  telem_.tracer.instant(kTracePid, dead ? 0 : 1, what, at);
  if (hook_) hook_(idx, dead, at);
}

std::uint64_t HeartbeatMonitor::digest() const {
  sim::Digest d;
  for (const LogEntry& entry : log_) {
    d.u64(std::uint64_t(entry.at.ns())).str(entry.what);
  }
  return d.value();
}

}  // namespace recovery
