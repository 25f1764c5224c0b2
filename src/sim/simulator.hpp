// The simulation kernel: owns the event queue (which keeps the clock) and
// drives the run loop. Every simulated component holds a Simulator& and
// schedules its future work through it.
//
// A Simulator is either standalone (the classic single-threaded loop) or
// one shard of a sim::ShardedSimulator (docs/performance.md "Parallel
// discrete-event core"). Boundary messages from other simulation domains
// (*deliveries*) share the one queue with local events, stamped (source
// domain, per-domain sequence). The *band rule*: at its instant a delivery
// sorts after every local event — including local work an earlier
// delivery schedules for that instant — and among deliveries by its stamp.
// That total order does not depend on how domains are packed onto shards,
// which is what keeps golden digests identical at any --shards count.
#pragma once

#include <cstdint>

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
  Time now() const { return queue_.now(); }

  /// Schedules `cb` to run after `delay` (>= 0) from now.
  EventId schedule_in(Duration delay, EventQueue::Callback cb) {
    return queue_.schedule(now() + delay, std::move(cb));
  }

  /// Schedules `cb` at an absolute time; throws std::logic_error when `at`
  /// is before now().
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
    while (!done() && now() < deadline) {
      run_until(now() + slice < deadline ? now() + slice : deadline);
    }
  }

  bool pending() const { return !queue_.empty(); }
  /// Events executed by this simulator — or, on an engine-attached shard,
  /// the monotonic total summed across every shard of the engine.
  std::uint64_t events_executed() const;

  // --- Deliveries (sim/shard.hpp; docs/performance.md) -------------------
  /// Stamp field widths: post_delivery() rejects a src_domain of
  /// kMaxDomains or more and a seq of 2^kSeqBits or more.
  static constexpr int kSeqBits = 47;
  static constexpr std::uint32_t kMaxDomains = 1u << (63 - kSeqBits);
  /// Posts a boundary message: `fn` runs at `at` (>= now), after every
  /// local event at the same instant, ordered against other deliveries by
  /// (at, src_domain, seq). Throws std::out_of_range when src_domain or
  /// seq is too wide for its stamp field.
  void post_delivery(Time at, std::uint32_t src_domain, std::uint64_t seq,
                     EventQueue::Callback fn);
  /// Earliest pending event or delivery; Time::max() when drained.
  Time next_event_time() const { return queue_.next_time(); }

  // --- Shard-runner hooks (called by ShardedSimulator) -------------------
  /// The one dispatch loop, which run() and run_until() wrap: runs every
  /// event and delivery with time < `end`, in band order. The clock is
  /// left at the last executed instant. Returns the number executed.
  /// Unlike run(), never forwards to the engine.
  std::uint64_t run_window(Time end);
  /// Advances the clock without running anything (window bookkeeping;
  /// no-op when `to` <= now).
  void advance_to(Time to) { queue_.advance_to(to); }
  /// Attaches this simulator to a sharded engine: run()/run_until() now
  /// drive the engine, and events_executed() reports the engine total.
  void set_engine(ShardedSimulator* engine) { engine_ = engine; }

 private:
  friend class ShardedSimulator;

  EventQueue queue_;
  std::uint64_t events_executed_ = 0;
  ShardedSimulator* engine_ = nullptr;
};

}  // namespace sim
