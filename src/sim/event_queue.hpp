// Discrete-event queue: an indexed 4-ary min-heap of (time, key) entries
// with O(log n) push/pop and O(log n) *true* cancellation. The queue also
// keeps the simulation clock, so nothing can be scheduled before now().
//
// Order within an instant (determinism): an event from schedule() takes
// the next value of a monotonic sequence as its key, so same-instant
// events fire in the order they were scheduled. An entry from
// schedule_ranked() takes a key with the top bit set above its caller's
// rank: it fires after every schedule()d event at its instant — including
// ones scheduled by earlier ranked entries — and among ranked entries in
// rank order. Simulator's cross-domain deliveries use this (band rule,
// simulator.hpp). Runs are exactly reproducible regardless of heap
// internals.
//
// Layout (docs/performance.md): heap entries are 24-byte PODs that sift
// cheaply; the callbacks live in a side slot table indexed by the entry, so
// reheapification never moves a closure. A slot is its callback alone: two
// dense side arrays hold each slot's heap position and generation
// counter. An EventId is (slot, generation), cancellation validates the
// generation and removes the entry from the middle of the heap
// immediately — no tombstones, no per-event hash-set traffic, and size()
// is exact. A 4-ary
// heap halves the tree depth of a binary heap. Entries compare as one
// 128-bit rank, so picking the smallest of four children takes no
// branch; a removal walks the hole down to a leaf along the smallest
// children and sifts the last entry up from there (bottom-up), so each
// level costs one such pick.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/inline_callback.hpp"
#include "sim/time.hpp"

namespace sim {

/// Opaque handle identifying a scheduled event; used for cancellation.
/// Generation-tagged: a handle goes stale the moment its event fires or is
/// cancelled, so cancelling twice (or cancelling a fired event) is a safe
/// no-op even after the slot is reused.
class EventId {
 public:
  constexpr EventId() = default;
  constexpr bool valid() const { return slot_ != kInvalidSlot; }
  constexpr auto operator<=>(const EventId&) const = default;

 private:
  friend class EventQueue;
  static constexpr std::uint32_t kInvalidSlot = 0xffffffffu;
  constexpr EventId(std::uint32_t slot, std::uint32_t gen)
      : slot_(slot), gen_(gen) {}
  std::uint32_t slot_ = kInvalidSlot;
  std::uint32_t gen_ = 0;
};

class EventQueue {
 public:
  using Callback = InlineCallback;
  /// schedule_ranked() ranks must be below this.
  static constexpr std::uint64_t kRankLimit = std::uint64_t{1} << 63;

  /// Schedules `cb` to fire at absolute time `at`. Scheduling before now()
  /// is a programming error and throws std::logic_error.
  EventId schedule(Time at, Callback cb);

  /// Schedules `cb` at `at` after every schedule()d event of that instant
  /// and ordered by `rank` (< kRankLimit) against other ranked entries of
  /// that instant. Same precondition as schedule().
  void schedule_ranked(Time at, std::uint64_t rank, Callback cb);

  /// Cancels a pending event. Returns false if the event already fired or
  /// was already cancelled. O(log n): the entry leaves the heap now and
  /// its callback (and everything the closure owns) is destroyed now.
  bool cancel(EventId id);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Time of the earliest pending event; Time::max() when empty.
  Time next_time() const {
    return heap_.empty() ? Time::max() : heap_.front().at;
  }

  /// Pops the earliest event, sets the clock to its time and runs it.
  /// Returns its time. Precondition: !empty().
  Time pop_and_run();

  /// The clock: the time of the last popped event, or later if
  /// advance_to() moved it on.
  Time now() const { return now_; }
  /// Moves the clock to `to` without running anything (no-op when `to` <=
  /// now()). Events before `to` must already have run.
  void advance_to(Time to) {
    if (to > now_) now_ = to;
  }

 private:
  struct HeapEntry {
    Time at;
    std::uint64_t key;
    std::uint32_t slot;
  };
  struct Slot {
    Callback cb;
  };
  static constexpr std::size_t kArity = 4;

  /// (time, key) as one integer. Times are never negative (nothing is
  /// scheduled before the clock, which starts at zero), so rank order is
  /// (time, key) order; keys are unique, so the order is total.
  using Rank = unsigned __int128;
  static Rank rank(const HeapEntry& e) {
    return Rank{static_cast<std::uint64_t>(e.at.ns())} << 64 | e.key;
  }

  /// The single insertion point: checks `at` against the clock.
  EventId push(Time at, std::uint64_t key, Callback cb);
  void put(std::size_t pos, const HeapEntry& e) {
    heap_[pos] = e;
    heap_pos_[e.slot] = static_cast<std::uint32_t>(pos);
  }
  /// Puts `e` into the hole at `pos` and moves it up to its place.
  void sift_up(std::size_t pos, const HeapEntry& e);
  /// Removes the entry at heap position `pos`: the hole walks down to a
  /// leaf along the smallest children, then the last entry fills it and
  /// sifts up.
  void remove_at(std::size_t pos);
  /// Destroys the slot's callback, bumps its generation (staling every
  /// outstanding EventId) and returns it to the freelist.
  void release_slot(std::uint32_t slot);

  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> heap_pos_;  // by slot; meaningful while live
  std::vector<std::uint32_t> gen_;       // by slot
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 1;  // schedule() keys; stays below kRankLimit
  Time now_ = Time::zero();
};

}  // namespace sim
