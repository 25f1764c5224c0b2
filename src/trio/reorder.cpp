#include "trio/reorder.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "trio/hash.hpp"

namespace trio {

namespace {
constexpr std::size_t kMinRing = 16;
constexpr std::size_t kMinFlows = 16;
}  // namespace

std::uint64_t ReorderEngine::open(std::uint64_t flow) {
  if (next_ticket_ - oldest_ == ring_.size()) grow_ring();
  const std::uint64_t id = next_ticket_++;
  Ticket& t = at(id);
  t.flow = flow;
  t.next = 0;
  t.state = State::kOpen;
  ++pending_;
  const std::size_t slot = find_flow(flow);
  if (slot == kNoFlow) {
    insert_flow(flow, id);
  } else {
    at(flows_[slot].tail).next = id;
    flows_[slot].tail = id;
  }
  pending_gauge_.set(static_cast<std::int64_t>(pending_));
  return id;
}

ReorderEngine::Ticket& ReorderEngine::live(std::uint64_t id, const char* op) {
  if (id >= oldest_ && id < next_ticket_) {
    Ticket& t = at(id);
    if (t.state != State::kReleased) return t;
  }
  throw std::logic_error(std::string("ReorderEngine::") + op +
                         ": unknown ticket");
}

void ReorderEngine::attach(std::uint64_t ticket, Output out) {
  Ticket& t = live(ticket, "attach");
  if (t.state == State::kClosed) {
    throw std::logic_error("ReorderEngine::attach: ticket already closed");
  }
  std::uint32_t node = free_output_;
  if (node != kNoOutput) {
    free_output_ = outputs_[node].next;
  } else {
    node = static_cast<std::uint32_t>(outputs_.size());
    outputs_.emplace_back();
  }
  outputs_[node].out = std::move(out);
  outputs_[node].next = kNoOutput;
  if (t.last_output == kNoOutput) {
    t.first_output = node;
  } else {
    outputs_[t.last_output].next = node;
  }
  t.last_output = node;
}

void ReorderEngine::close(std::uint64_t ticket) {
  Ticket& t = live(ticket, "close");
  if (t.state == State::kClosed) {
    throw std::logic_error("ReorderEngine::close: ticket closed twice");
  }
  t.state = State::kClosed;
  flush(t.flow);
  pending_gauge_.set(static_cast<std::int64_t>(pending_));
}

void ReorderEngine::flush(std::uint64_t flow) {
  // release_ may re-enter open() and close() (a port sink looping back
  // into this PFE), which can move tickets and flow slots: everything is
  // looked up again by id after each release.
  while (true) {
    const std::size_t slot = find_flow(flow);
    if (slot == kNoFlow) return;
    const std::uint64_t id = flows_[slot].head;
    if (at(id).state != State::kClosed) return;
    // Unlink first, so a re-entrant open of this flow starts after it.
    if (id == flows_[slot].tail) {
      erase_flow(slot);
    } else {
      flows_[slot].head = at(id).next;
    }
    std::uint32_t node = at(id).first_output;
    at(id).first_output = at(id).last_output = kNoOutput;
    while (node != kNoOutput) {
      // Free the node before releasing: a re-entrant attach may take it.
      const std::uint32_t next = outputs_[node].next;
      Output out = std::move(outputs_[node].out);
      outputs_[node].next = free_output_;
      free_output_ = node;
      released_.inc();
      release_(std::move(out));
      node = next;
    }
    at(id).state = State::kReleased;
    --pending_;
    while (oldest_ < next_ticket_ && at(oldest_).state == State::kReleased) {
      ++oldest_;
    }
  }
}

void ReorderEngine::grow_ring() {
  std::vector<Ticket> next(std::max(kMinRing, 2 * ring_.size()));
  for (std::uint64_t id = oldest_; id < next_ticket_; ++id) {
    next[id & (next.size() - 1)] = std::move(at(id));
  }
  ring_.swap(next);
}

std::size_t ReorderEngine::home(std::uint64_t flow) const {
  return static_cast<std::size_t>(mix64(flow)) & (flows_.size() - 1);
}

std::size_t ReorderEngine::find_flow(std::uint64_t flow) const {
  if (flows_.empty()) return kNoFlow;
  const std::size_t mask = flows_.size() - 1;
  for (std::size_t i = home(flow);; i = (i + 1) & mask) {
    if (flows_[i].head == 0) return kNoFlow;
    if (flows_[i].flow == flow) return i;
  }
}

void ReorderEngine::insert_flow(std::uint64_t flow, std::uint64_t id) {
  if (2 * (flow_count_ + 1) > flows_.size()) {
    std::vector<Flow> old(std::max(kMinFlows, 2 * flows_.size()));
    old.swap(flows_);
    flow_count_ = 0;
    for (const Flow& f : old) {
      if (f.head != 0) {
        insert_flow(f.flow, f.head);
        flows_[find_flow(f.flow)].tail = f.tail;
      }
    }
  }
  const std::size_t mask = flows_.size() - 1;
  std::size_t i = home(flow);
  while (flows_[i].head != 0) i = (i + 1) & mask;
  flows_[i] = Flow{flow, id, id};
  ++flow_count_;
}

void ReorderEngine::erase_flow(std::size_t slot) {
  // Backward-shift deletion: pull later entries of the probe run into the
  // hole unless their home lies cyclically in (hole, j].
  const std::size_t mask = flows_.size() - 1;
  std::size_t hole = slot;
  for (std::size_t j = (hole + 1) & mask; flows_[j].head != 0;
       j = (j + 1) & mask) {
    const std::size_t h = home(flows_[j].flow);
    const bool stays = hole < j ? (hole < h && h <= j) : (hole < h || h <= j);
    if (!stays) {
      flows_[hole] = flows_[j];
      hole = j;
    }
  }
  flows_[hole] = Flow{};
  --flow_count_;
}

}  // namespace trio
