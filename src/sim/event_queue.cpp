#include "sim/event_queue.hpp"

#include <algorithm>
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
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].cb = std::move(cb);
  heap_.push_back(HeapEntry{at, key, slot});
  slots_[slot].heap_pos = static_cast<std::uint32_t>(heap_.size() - 1);
  sift_up(heap_.size() - 1);
  return EventId(slot, slots_[slot].gen);
}

bool EventQueue::cancel(EventId id) {
  if (!id.valid() || id.slot_ >= slots_.size()) return false;
  Slot& s = slots_[id.slot_];
  // A live slot's generation matches the handle; fired/cancelled slots
  // were bumped on release, so stale handles fail here.
  if (s.gen != id.gen_) return false;
  const std::uint32_t pos = s.heap_pos;
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

void EventQueue::sift_up(std::size_t pos) {
  const HeapEntry e = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!before(e, heap_[parent])) break;
    put(pos, heap_[parent]);
    pos = parent;
  }
  put(pos, e);
}

void EventQueue::sift_down(std::size_t pos) {
  const HeapEntry e = heap_[pos];
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t first = pos * kArity + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + kArity, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], e)) break;
    put(pos, heap_[best]);
    pos = best;
  }
  put(pos, e);
}

void EventQueue::remove_at(std::size_t pos) {
  const std::size_t last = heap_.size() - 1;
  if (pos != last) {
    put(pos, heap_[last]);
    heap_.pop_back();
    // The transplanted entry may violate the invariant in either
    // direction (it came from a different subtree).
    if (pos > 0 && before(heap_[pos], heap_[(pos - 1) / kArity])) {
      sift_up(pos);
    } else {
      sift_down(pos);
    }
  } else {
    heap_.pop_back();
  }
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb = Callback{};
  ++s.gen;
  free_slots_.push_back(slot);
}

}  // namespace sim
