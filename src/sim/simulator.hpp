// The simulation kernel: owns the clock and the event queue and drives the
// run loop. Every simulated component holds a Simulator& and schedules its
// future work through it.
//
// A Simulator is either standalone (the classic single-threaded loop) or
// one shard of a sim::ShardedSimulator (docs/performance.md "Parallel
// discrete-event core"). Sharded simulators carry a second event lane, the
// *delivery band*: boundary messages from other simulation domains, ordered
// by (arrival time, source domain, per-domain sequence). At every instant
// the local queue runs first, then deliveries one at a time — a total order
// that does not depend on how domains are packed onto shards, which is what
// keeps golden digests identical at any --shards count.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace sim {

class ShardedSimulator;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedules `cb` to run after `delay` (>= 0) from now.
  EventId schedule_in(Duration delay, EventQueue::Callback cb) {
    return queue_.schedule(now_ + delay, std::move(cb));
  }

  /// Schedules `cb` at an absolute time (>= now).
  EventId schedule_at(Time at, EventQueue::Callback cb) {
    return queue_.schedule(at, std::move(cb));
  }

  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs until the event queue drains. Returns the number of events run.
  /// On an engine-attached shard this drives the whole sharded simulation
  /// (all shards), so existing call sites work unmodified.
  std::uint64_t run();

  /// Runs events with time <= deadline; the clock is advanced to `deadline`
  /// even if the queue drains earlier. Returns the number of events run.
  std::uint64_t run_until(Time deadline);

  /// run_until() in 1 ms slices until `done()` holds or the clock reaches
  /// `deadline` — for runs whose timers (straggler scans, traffic
  /// sources, fluid wakeups) keep the queue from draining when the work
  /// is done. `done` is polled with the engine parked.
  template <class Done>
  void run_until_done(Time deadline, Done&& done) {
    const Duration slice = Duration::millis(1);
    while (!done() && now_ < deadline) {
      run_until(now_ + slice < deadline ? now_ + slice : deadline);
    }
  }

  /// Runs at most `max_events` events. Returns the number run. Standalone
  /// simulators only (throws std::logic_error on an engine shard, where
  /// event counts are only meaningful globally).
  std::uint64_t run_events(std::uint64_t max_events);

  bool pending() const { return !queue_.empty() || !deliveries_.empty(); }
  std::size_t queue_size() const { return queue_.size(); }
  /// Events executed by this simulator — or, on an engine-attached shard,
  /// the monotonic total summed across every shard of the engine.
  std::uint64_t events_executed() const;

  // --- Delivery band (sim/shard.hpp; docs/performance.md) ----------------
  /// Posts a boundary message: `fn` runs at `at` (>= now), after every
  /// queue event at the same instant, ordered against other deliveries by
  /// (at, src_domain, seq).
  void post_delivery(Time at, std::uint32_t src_domain, std::uint64_t seq,
                     EventQueue::Callback fn);
  /// Earliest pending boundary delivery; Time::max() when none.
  Time next_delivery_time() const {
    return deliveries_.empty() ? Time::max() : deliveries_.front().at;
  }
  std::size_t deliveries_pending() const { return deliveries_.size(); }
  /// Earliest pending work on either lane; Time::max() when drained.
  Time next_event_time() const {
    const Time tq = queue_.next_time();
    const Time td = next_delivery_time();
    return tq <= td ? tq : td;
  }

  // --- Shard-runner hooks (called by ShardedSimulator) -------------------
  /// Runs every queue event and boundary delivery with time < `end`,
  /// batching same-instant queue events as cohorts. The clock is left at
  /// the last executed instant. Returns the number executed. Unlike
  /// run(), never forwards to the engine.
  std::uint64_t run_window(Time end);
  /// Advances the clock without running anything (window bookkeeping;
  /// no-op when `to` <= now).
  void advance_to(Time to) {
    if (to > now_) now_ = to;
  }
  /// Attaches this simulator to a sharded engine: run()/run_until() now
  /// drive the engine, and events_executed() reports the engine total.
  void set_engine(ShardedSimulator* engine) { engine_ = engine; }

 private:
  friend class ShardedSimulator;

  struct Delivery {
    Time at;
    std::uint32_t src;
    std::uint64_t seq;
    EventQueue::Callback fn;
  };
  /// Heap predicate: a sorts after b — the vector is a binary min-heap on
  /// (at, src, seq) under std::push_heap/std::pop_heap.
  static bool delivery_after(const Delivery& a, const Delivery& b) {
    if (a.at != b.at) return a.at > b.at;
    if (a.src != b.src) return a.src > b.src;
    return a.seq > b.seq;
  }
  void pop_delivery_and_run();

  EventQueue queue_;
  std::vector<Delivery> deliveries_;
  Time now_ = Time::zero();
  std::uint64_t events_executed_ = 0;
  ShardedSimulator* engine_ = nullptr;
};

}  // namespace sim
