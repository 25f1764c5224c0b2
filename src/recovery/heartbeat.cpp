#include "recovery/heartbeat.hpp"

#include <stdexcept>

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

HeartbeatMonitor::HeartbeatMonitor(sim::Simulator& simulator,
                                   telemetry::Telemetry* telem,
                                   HeartbeatConfig config)
    : sim_(simulator), telem_(telem), config_(config) {
  if (config_.period.ns() <= 0 || config_.check_period.ns() <= 0 ||
      config_.timers <= 0 || config_.phi_threshold <= 0) {
    throw std::invalid_argument("HeartbeatMonitor: bad config");
  }
  if (telem_ != nullptr) {
    heartbeat_ctr_ = telem_->metrics.counter("recovery.heartbeats");
    death_ctr_ = telem_->metrics.counter("recovery.deaths_declared");
    revival_ctr_ = telem_->metrics.counter("recovery.revivals_detected");
    if (telem_->tracer.enabled()) {
      telem_->tracer.set_process_name(kTracePid, "recovery");
    }
  }
}

int HeartbeatMonitor::watch(const std::string& name, trio::Router& router) {
  if (running_) {
    throw std::logic_error("HeartbeatMonitor: watch() before start()");
  }
  Watched w;
  w.name = name;
  w.router = &router;
  w.estimator = PhiEstimator(config_.ewma_alpha);
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
        [this, i](std::uint32_t) -> std::unique_ptr<trio::PpeProgram> {
          if (watched_[std::size_t(i)].router->killed()) return nullptr;
          return std::make_unique<HeartbeatProgram>(*this, i);
        });
  }
  check_event_ = sim_.schedule_in(config_.check_period, [this] { check(); });
}

void HeartbeatMonitor::stop() {
  if (!running_) return;
  running_ = false;
  sim_.cancel(check_event_);
  for (Watched& w : watched_) {
    if (w.timer_group >= 0) {
      w.router->pfe(0).timers().stop_group(w.timer_group);
      w.timer_group = -1;
    }
  }
}

const std::string& HeartbeatMonitor::name(int idx) const {
  return watched_.at(std::size_t(idx)).name;
}

bool HeartbeatMonitor::dead(int idx) const {
  return watched_.at(std::size_t(idx)).dead;
}

double HeartbeatMonitor::phi_now(int idx) const {
  return watched_.at(std::size_t(idx)).estimator.phi(sim_.now());
}

const PhiEstimator& HeartbeatMonitor::estimator(int idx) const {
  return watched_.at(std::size_t(idx)).estimator;
}

void HeartbeatMonitor::on_heartbeat(int idx) {
  Watched& w = watched_.at(std::size_t(idx));
  ++heartbeats_;
  heartbeat_ctr_.inc();
  w.estimator.observe(sim_.now());
  if (w.dead) {
    // First heartbeat after a death declaration: the router is back.
    w.dead = false;
    ++revivals_;
    revival_ctr_.inc();
    record("revival " + w.name, /*recovery=*/true);
    if (hook_) hook_(idx, /*dead=*/false);
  }
}

void HeartbeatMonitor::check() {
  if (!running_) return;
  for (int i = 0; i < watched(); ++i) {
    Watched& w = watched_[std::size_t(i)];
    if (w.dead || !w.estimator.primed()) continue;
    if (w.estimator.phi(sim_.now()) >= config_.phi_threshold) {
      w.dead = true;
      ++deaths_;
      death_ctr_.inc();
      record("dead " + w.name, /*recovery=*/false);
      if (hook_) hook_(i, /*dead=*/true);
    }
  }
  check_event_ = sim_.schedule_in(config_.check_period, [this] { check(); });
}

void HeartbeatMonitor::record(const std::string& what, bool recovery) {
  log_.push_back(LogEntry{sim_.now(), what});
  if (telem_ != nullptr) {
    telem_->tracer.instant(kTracePid, recovery ? 1 : 0, what, sim_.now());
  }
}

std::uint64_t HeartbeatMonitor::digest() const {
  sim::Digest d;
  for (const LogEntry& entry : log_) {
    d.u64(std::uint64_t(entry.at.ns())).str(entry.what);
  }
  return d.value();
}

}  // namespace recovery
