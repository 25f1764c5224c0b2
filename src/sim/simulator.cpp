#include "sim/simulator.hpp"

#include <stdexcept>
#include <utility>

#include "sim/shard.hpp"

namespace sim {

std::uint64_t Simulator::run() {
  if (engine_ != nullptr) return engine_->run();
  return run_window(Time::max());
}

std::uint64_t Simulator::run_until(Time deadline) {
  if (engine_ != nullptr) return engine_->run_until(deadline);
  const std::uint64_t n = run_window(
      deadline == Time::max() ? deadline : deadline + Duration::nanos(1));
  advance_to(deadline);
  return n;
}

std::uint64_t Simulator::events_executed() const {
  if (engine_ != nullptr) return engine_->events_executed();
  return events_executed_;
}

void Simulator::post_delivery(Time at, std::uint32_t src_domain,
                              std::uint64_t seq, EventQueue::Callback fn) {
  if (src_domain >= kMaxDomains || (seq >> kSeqBits) != 0) {
    throw std::out_of_range(
        "Simulator::post_delivery: source domain or sequence too wide for "
        "the delivery stamp");
  }
  queue_.schedule_ranked(at, (std::uint64_t{src_domain} << kSeqBits) | seq,
                         std::move(fn));
}

std::uint64_t Simulator::run_window(Time end) {
  std::uint64_t n = 0;
  while (queue_.next_time() < end) {
    queue_.pop_and_run();
    ++n;
  }
  events_executed_ += n;
  return n;
}

}  // namespace sim
