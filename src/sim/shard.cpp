#include "sim/shard.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace sim {

ShardedSimulator::ShardedSimulator(std::uint32_t num_domains,
                                   std::uint32_t num_shards,
                                   Duration lookahead)
    : num_domains_(num_domains),
      num_shards_(std::max<std::uint32_t>(
          1, std::min(num_shards, std::max<std::uint32_t>(1, num_domains)))),
      lookahead_(lookahead) {
  if (num_shards_ > 1 && lookahead_ <= Duration::zero()) {
    throw std::invalid_argument(
        "ShardedSimulator: parallel execution requires positive lookahead "
        "(the smallest cross-domain link latency)");
  }
  domain_seq_.assign(std::max<std::uint32_t>(1, num_domains_), 0);
  shards_.reserve(num_shards_);
  for (std::uint32_t s = 0; s < num_shards_; ++s) {
    auto sh = std::make_unique<Shard>();
    sh->outbox.resize(num_shards_);
    sh->sim.set_engine(this);
    shards_.push_back(std::move(sh));
  }
  if (num_shards_ > 1) {
    pre_barrier_.emplace(static_cast<std::ptrdiff_t>(num_shards_));
    compute_barrier_.emplace(static_cast<std::ptrdiff_t>(num_shards_),
                             PlanFn{this});
    threads_.reserve(num_shards_);
    for (std::uint32_t s = 0; s < num_shards_; ++s) {
      threads_.emplace_back([this, s] { worker_main(s); });
    }
  }
}

ShardedSimulator::~ShardedSimulator() {
  if (!threads_.empty()) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_threads_ = true;
    }
    start_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
}

void ShardedSimulator::post(std::uint32_t src_domain, std::uint32_t dst_domain,
                            Time at, Callback fn) {
  const std::uint64_t seq = ++domain_seq_[src_domain];
  const std::uint32_t dst_shard = shard_of(dst_domain);
  if (in_global_ || dst_shard == shard_of(src_domain)) {
    // Same thread executes both domains: straight into its queue. The
    // (at, src, seq) stamp — not the route taken — decides execution
    // order, so this shortcut cannot perturb digests.
    shards_[dst_shard]->sim.post_delivery(at, src_domain, seq, std::move(fn));
  } else {
    shards_[shard_of(src_domain)]->outbox[dst_shard].push_back(
        Message{at, src_domain, seq, std::move(fn)});
  }
}

void ShardedSimulator::schedule_global(Time at, Callback fn) {
  std::lock_guard<std::mutex> lk(globals_mu_);
  globals_.push_back(GlobalAction{at, ++global_seq_, std::move(fn)});
  std::push_heap(globals_.begin(), globals_.end(), global_after);
}

void ShardedSimulator::run_globals_at(Time tg) {
  // Every shard is parked while a global action runs, so cross-shard
  // post() calls made by the action go straight into the destination queue
  // (the outbox would not drain until after the next window).
  in_global_ = true;
  while (true) {
    Callback fn;
    {
      std::lock_guard<std::mutex> lk(globals_mu_);
      if (globals_.empty() || globals_.front().at != tg) break;
      std::pop_heap(globals_.begin(), globals_.end(), global_after);
      fn = std::move(globals_.back().fn);
      globals_.pop_back();
    }
    // Outside the lock: the action may schedule further globals.
    fn();
  }
  in_global_ = false;
}

std::uint64_t ShardedSimulator::run() {
  return run_to(Time::max(), /*advance_to_deadline=*/false);
}

std::uint64_t ShardedSimulator::run_until(Time deadline) {
  return run_to(deadline, /*advance_to_deadline=*/true);
}

std::uint64_t ShardedSimulator::run_to(Time deadline,
                                       bool advance_to_deadline) {
  if (error_) std::rethrow_exception(error_);
  const std::uint64_t before = raw_events_total();
  deadline_ = deadline;
  if (num_shards_ == 1) {
    run_serial();
  } else {
    std::unique_lock<std::mutex> lk(mu_);
    finished_ = 0;
    ++run_gen_;
    start_cv_.notify_all();
    finish_cv_.wait(lk, [&] { return finished_ == num_shards_; });
    lk.unlock();
    if (error_) std::rethrow_exception(error_);
  }
  if (advance_to_deadline) {
    for (auto& sh : shards_) sh->sim.advance_to(deadline);
  } else {
    Time mx = Time::zero();
    for (auto& sh : shards_) mx = std::max(mx, sh->sim.now());
    for (auto& sh : shards_) sh->sim.advance_to(mx);
  }
  return raw_events_total() - before;
}

void ShardedSimulator::run_serial() {
  Shard& sh = *shards_[0];
  while (true) {
    sh.next = sh.sim.next_event_time();
    if (!plan_window()) return;
    sh.sim.run_window(window_end_);
  }
}

void ShardedSimulator::worker_main(std::uint32_t me) {
  std::uint64_t seen_gen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      start_cv_.wait(lk,
                     [&] { return stop_threads_ || run_gen_ != seen_gen; });
      if (stop_threads_) return;
      seen_gen = run_gen_;
    }
    round_loop(me);
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++finished_;
      if (finished_ == num_shards_) finish_cv_.notify_all();
    }
  }
}

void ShardedSimulator::round_loop(std::uint32_t me) {
  Shard& sh = *shards_[me];
  while (true) {
    // Every shard has finished its previous window; all outbox writes are
    // now visible and no simulator is executing.
    pre_barrier_->arrive_and_wait();
    drain_inbox(me);
    sh.next = sh.sim.next_event_time();
    // Completion (on the last thread to arrive) runs due global actions
    // and plans the next window — or decides to stop.
    compute_barrier_->arrive_and_wait();
    if (stop_round_) break;
    try {
      sh.sim.run_window(window_end_);
    } catch (...) {
      record_error();
    }
  }
}

void ShardedSimulator::drain_inbox(std::uint32_t me) {
  Shard& sh = *shards_[me];
  for (std::uint32_t s = 0; s < num_shards_; ++s) {
    if (s == me) continue;
    std::vector<Message>& box = shards_[s]->outbox[me];
    for (Message& m : box) {
      sh.sim.post_delivery(m.at, m.src_domain, m.seq, std::move(m.fn));
    }
    box.clear();
  }
}

void ShardedSimulator::plan_next_window() noexcept {
  try {
    stop_round_ = abort_.load(std::memory_order_relaxed) || !plan_window();
  } catch (...) {
    record_error();
    stop_round_ = true;
  }
}

bool ShardedSimulator::plan_window() {
  while (true) {
    Time t = Time::max();
    for (auto& sh : shards_) t = std::min(t, sh->next);
    const Time tg = next_global_time();
    if (tg != Time::max() && tg <= t && tg <= deadline_) {
      // All events before tg have executed and every shard is parked:
      // fire the global actions with the clocks reading tg, then re-plan
      // (they may have scheduled new work anywhere).
      for (auto& sh : shards_) sh->sim.advance_to(tg);
      run_globals_at(tg);
      for (auto& sh : shards_) sh->next = sh->sim.next_event_time();
      continue;
    }
    if (t == Time::max() || t > deadline_) return false;
    // A zero lookahead (one shard only) still advances a nanosecond per
    // window.
    Time we = t + std::max(lookahead_, Duration::nanos(1));
    if (tg < we) we = tg;
    if (deadline_ != Time::max() && we > deadline_) {
      we = deadline_ + Duration::nanos(1);
    }
    window_end_ = we;
    ++rounds_;
    return true;
  }
}

std::uint64_t ShardedSimulator::raw_events_total() const {
  std::uint64_t n = 0;
  // Reads the raw per-shard counters (friend access) — Simulator::
  // events_executed() on an engine shard forwards back here.
  for (const auto& sh : shards_) n += sh->sim.events_executed_;
  return n;
}

void ShardedSimulator::record_error() noexcept {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!error_) error_ = std::current_exception();
  }
  abort_.store(true, std::memory_order_relaxed);
}

Time ShardedSimulator::now() const {
  Time mx = Time::zero();
  for (const auto& sh : shards_) mx = std::max(mx, sh->sim.now());
  return mx;
}

bool ShardedSimulator::pending() const {
  for (const auto& sh : shards_) {
    if (sh->sim.pending()) return true;
  }
  return !globals_.empty();
}

std::uint64_t ShardedSimulator::events_executed() const {
  return raw_events_total();
}

}  // namespace sim
