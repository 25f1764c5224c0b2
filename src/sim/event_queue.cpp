#include "sim/event_queue.hpp"

#include <stdexcept>
#include <utility>

namespace sim {

EventId EventQueue::schedule(Time at, Callback cb) {
  return push(at, next_seq_++, std::move(cb));
}

void EventQueue::schedule_ranked(Time at, std::uint64_t rank, Callback cb) {
  push(at, kRankLimit | rank, std::move(cb));
}

EventId EventQueue::push(Time at, std::uint64_t key, Callback cb) {
  if (at < now_) {
    throw std::logic_error("EventQueue: event scheduled before now()");
  }
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    heap_pos_.push_back(0);
    gen_.push_back(0);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].cb = std::move(cb);
  heap_.emplace_back();
  sift_up(heap_.size() - 1, HeapEntry{at, key, slot});
  return EventId(slot, gen_[slot]);
}

bool EventQueue::cancel(EventId id) {
  if (!id.valid() || id.slot_ >= slots_.size()) return false;
  // A live slot's generation matches the handle; fired/cancelled slots
  // were bumped on release, so stale handles fail here.
  if (gen_[id.slot_] != id.gen_) return false;
  const std::uint32_t pos = heap_pos_[id.slot_];
  release_slot(id.slot_);
  remove_at(pos);
  return true;
}

Time EventQueue::pop_and_run() {
  if (heap_.empty()) {
    throw std::logic_error("EventQueue::pop_and_run: queue is empty");
  }
  const HeapEntry top = heap_.front();
  Callback cb = std::move(slots_[top.slot].cb);
  release_slot(top.slot);
  remove_at(0);
  now_ = top.at;
  // The entry is fully unlinked before the callback runs, so the callback
  // may freely schedule and cancel (including reentrant pops via nested
  // run loops in tests).
  cb();
  return top.at;
}

void EventQueue::sift_up(std::size_t pos, const HeapEntry& e) {
  const Rank r = rank(e);
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!(r < rank(heap_[parent]))) break;
    put(pos, heap_[parent]);
    pos = parent;
  }
  put(pos, e);
}

void EventQueue::remove_at(std::size_t pos) {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (pos == n) return;  // it was the last entry
  // A node with all four children: pick the smallest with a tournament
  // of conditional moves. Which child wins is close to a coin toss, so
  // the final pick is arithmetic: GCC compiles a conditional there into
  // a branch.
  std::size_t first = pos * kArity + 1;
  while (first + kArity <= n) {
    const HeapEntry* c = &heap_[first];
    const Rank r0 = rank(c[0]), r1 = rank(c[1]);
    const Rank r2 = rank(c[2]), r3 = rank(c[3]);
    const bool b01 = r1 < r0, b23 = r3 < r2;
    const Rank lo01 = b01 ? r1 : r0, lo23 = b23 ? r3 : r2;
    const std::size_t i01 = first + b01, i23 = first + 2 + b23;
    const std::size_t best = i01 + (i23 - i01) * (lo23 < lo01);
    put(pos, heap_[best]);
    pos = best;
    first = pos * kArity + 1;
  }
  if (first < n) {  // the last node may have one to three children
    std::size_t best = first;
    for (std::size_t c = first + 1; c < n; ++c) {
      if (rank(heap_[c]) < rank(heap_[best])) best = c;
    }
    put(pos, heap_[best]);
    pos = best;
  }
  // The hole is a leaf now; the last entry fills it and moves up (for a
  // removal from the middle, possibly above where the hole started).
  sift_up(pos, last);
}

void EventQueue::release_slot(std::uint32_t slot) {
  slots_[slot].cb = Callback{};
  ++gen_[slot];
  free_slots_.push_back(slot);
}

}  // namespace sim
