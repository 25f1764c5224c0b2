// Conservative parallel discrete-event engine (time-window PDES with link
// latency as lookahead) — docs/performance.md "Parallel discrete-event
// core".
//
// The simulated world is split into *domains* (one per router together with
// its PFEs/PPEs/SMS/MQSS and host-side endpoints). Domains are packed onto
// *shards* — one OS thread and one sim::Simulator each — round-robin
// (domain % num_shards). Cross-domain traffic is the only coupling, and
// every cross-domain link delay is a known constant >= the engine
// lookahead, so the classic conservative window protocol applies: all
// shards repeatedly execute the half-open window [T, T + lookahead) in
// parallel, where T is the globally earliest pending event, then exchange
// boundary messages at a barrier. A message sent inside a window arrives no
// earlier than the window's end, so no shard ever receives work in its
// past.
//
// Determinism at any shard count: every cross-domain send is stamped
// (source domain, per-domain sequence) and queued at its destination like
// any other event, sorted after every local event at its arrival instant
// and among deliveries by that stamp (the *band rule*, see simulator.hpp).
// The stamp depends only on the simulation itself — never on thread timing
// or on how domains are packed — so golden digests are bit-identical for
// --shards 1 and N.
//
// Global actions (fault injection, failover control) run via
// schedule_global(): at the window-planning barrier, with every shard
// parked and every event before time t already executed, the action fires
// once on the planning thread with all shard clocks advanced to t.
#pragma once

#include <atomic>
#include <barrier>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace sim {

class ShardedSimulator {
 public:
  using Callback = EventQueue::Callback;

  /// `lookahead` must be positive when `num_shards` > 1 and no greater
  /// than the smallest cross-domain link latency. `num_shards` is clamped
  /// to [1, num_domains]. Worker threads (one per shard) start here and
  /// park between runs.
  ShardedSimulator(std::uint32_t num_domains, std::uint32_t num_shards,
                   Duration lookahead);
  ~ShardedSimulator();
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  std::uint32_t num_domains() const { return num_domains_; }
  std::uint32_t num_shards() const { return num_shards_; }
  Duration lookahead() const { return lookahead_; }

  std::uint32_t shard_of(std::uint32_t domain) const {
    return domain % num_shards_;
  }
  /// The simulator that executes `domain`'s events.
  Simulator& domain_sim(std::uint32_t domain) {
    return shards_[shard_of(domain)]->sim;
  }
  Simulator& shard(std::uint32_t s) { return shards_[s]->sim; }

  /// Posts a cross-domain message: `fn` runs on dst_domain's shard at `at`
  /// in band order. Call only from src_domain's executing thread (or
  /// between runs). `at` must respect the lookahead when the two domains
  /// live on different shards.
  void post(std::uint32_t src_domain, std::uint32_t dst_domain, Time at,
            Callback fn);

  /// Schedules `fn` to run at `at` on the planning thread with every shard
  /// parked: all events before `at` have executed, none at or after `at`
  /// has, and all shard clocks read `at`. FIFO among same-instant actions.
  /// Call from global actions themselves or while no run is in progress.
  void schedule_global(Time at, Callback fn);

  /// Runs until every shard drains and no global action is pending.
  /// Returns the number of events executed (local events + deliveries;
  /// global actions are not counted). All shard clocks end at the global
  /// maximum. Rethrows the first exception any shard's event threw.
  std::uint64_t run();

  /// Runs every event and global action with time <= deadline, then
  /// advances all shard clocks to `deadline`.
  std::uint64_t run_until(Time deadline);

  /// Global clock: the maximum of the shard clocks (they agree after run()
  /// / run_until() return).
  Time now() const;
  bool pending() const;
  /// Monotonic events executed, summed across shards. Call between runs.
  std::uint64_t events_executed() const;
  /// Number of synchronisation windows executed so far (one barrier round
  /// each in parallel mode) — a measure of sync overhead for the benches.
  std::uint64_t rounds() const { return rounds_; }

 private:
  struct Message {
    Time at;
    std::uint32_t src_domain;
    std::uint64_t seq;
    Callback fn;
  };
  struct GlobalAction {
    Time at;
    std::uint64_t seq;
    Callback fn;
  };
  /// One shard: a simulator plus its per-destination-shard outboxes.
  /// Cache-line aligned so neighbouring shards' hot state never shares a
  /// line.
  struct alignas(64) Shard {
    Simulator sim;
    std::vector<std::vector<Message>> outbox;  // indexed by dest shard
    Time next = Time::max();  // next event time, read by plan_window()
  };
  /// std::barrier completion: must be a noexcept functor (plan_next_window
  /// traps its own failures into error_).
  struct PlanFn {
    ShardedSimulator* self;
    void operator()() noexcept { self->plan_next_window(); }
  };

  static bool global_after(const GlobalAction& a, const GlobalAction& b) {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }
  Time next_global_time() const {
    return globals_.empty() ? Time::max() : globals_.front().at;
  }
  /// Pops and runs every global action scheduled for exactly `tg`
  /// (including ones those actions schedule for `tg` itself).
  void run_globals_at(Time tg);

  std::uint64_t run_to(Time deadline, bool advance_to_deadline);
  /// One shard: plans and runs windows on the calling thread, so an
  /// exception from an event or a global action propagates directly.
  void run_serial();
  void worker_main(std::uint32_t me);
  void round_loop(std::uint32_t me);
  /// Posts every message other shards addressed to `me` into its queue.
  /// Runs between the two barriers, when no shard is executing.
  void drain_inbox(std::uint32_t me);
  /// Barrier completion: plan_window(), trapping its failures into
  /// error_; sets stop_round_ when there is no window to run.
  void plan_next_window() noexcept;
  /// Runs the global actions due no later than the earliest shard's next
  /// event (Shard::next), then plans the next window [T, window_end_).
  /// Returns false when nothing is left to run by deadline_.
  bool plan_window();
  std::uint64_t raw_events_total() const;
  void record_error() noexcept;

  std::uint32_t num_domains_;
  std::uint32_t num_shards_;
  Duration lookahead_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Per-source-domain message sequence; each entry is written only by the
  /// thread currently executing that domain.
  std::vector<std::uint64_t> domain_seq_;

  std::mutex globals_mu_;
  std::vector<GlobalAction> globals_;  // min-heap on (at, seq)
  std::uint64_t global_seq_ = 0;

  // Round state. window_end_ / stop_round_ / deadline_ are written by the
  // barrier completion (or the control thread between runs) and read by
  // workers after the barrier — the barrier itself orders the accesses.
  Time window_end_ = Time::zero();
  bool stop_round_ = false;
  Time deadline_ = Time::max();
  /// True while a global action runs (all shards parked); makes post()
  /// bypass the outboxes, which would drain too late.
  bool in_global_ = false;
  std::uint64_t rounds_ = 0;
  std::atomic<bool> abort_{false};

  // Worker parking / completion handshake.
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable finish_cv_;
  std::uint64_t run_gen_ = 0;
  std::uint32_t finished_ = 0;
  bool stop_threads_ = false;
  std::exception_ptr error_;

  std::optional<std::barrier<>> pre_barrier_;
  std::optional<std::barrier<PlanFn>> compute_barrier_;
  std::vector<std::thread> threads_;
};

}  // namespace sim
