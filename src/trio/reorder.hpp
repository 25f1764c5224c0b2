// The Reorder Engine (paper §2.1): packets of the same flow must leave in
// arrival order even though their threads run to completion independently
// and may finish out of order.
//
// Each dispatched packet opens a *ticket* on its flow. A thread attaches
// zero or more output packets to its ticket (zero = packet consumed, e.g.
// an aggregation packet absorbed into a block; more than one = locally
// generated packets such as aggregation results). When the ticket at the
// front of the flow queue closes, its outputs — and those of any
// subsequently contiguous closed tickets — are released downstream.
//
// Tickets live in a ring indexed by ticket id, spanning the oldest
// unreleased ticket to the newest; it doubles when that span fills it and
// never shrinks. Each ticket links to the next ticket of its flow, and a
// small open-addressing table maps each flow with unreleased tickets to
// its oldest and newest one. Outputs wait in a node list per ticket, the
// nodes drawn from one free list. Once the ring, the table and the node
// list have grown to the in-flight load, tickets cost no allocation.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "net/packet.hpp"
#include "telemetry/metrics.hpp"

namespace trio {

class ReorderEngine {
 public:
  struct Output {
    net::PacketPtr pkt;
    std::uint32_t nexthop_id;
  };
  /// Downstream sink: the PFE's transmit path.
  using Release = std::function<void(Output)>;

  explicit ReorderEngine(Release release) : release_(std::move(release)) {}

  /// Opens a ticket on `flow`. Tickets on one flow release in open order.
  std::uint64_t open(std::uint64_t flow);

  /// Attaches an output to an open ticket.
  void attach(std::uint64_t ticket, Output out);

  /// Marks the ticket's processing complete; releases any now-unblocked
  /// contiguous outputs.
  void close(std::uint64_t ticket);

  /// Tickets opened and not yet released.
  std::size_t pending() const { return pending_; }
  std::uint64_t released() const { return released_.value(); }
  /// Ticket slots in the ring.
  std::size_t capacity() const { return ring_.size(); }

  /// Registers `<prefix>reorder.pending` (open-ticket gauge) and binds
  /// the released-output count as `<prefix>reorder.released`. Called by
  /// the owning Pfe with its metric prefix.
  void instrument(telemetry::Registry& registry, std::string_view prefix) {
    pending_gauge_ = registry.gauge(prefix, "reorder.pending");
    registry.bind(released_, prefix, "reorder.released");
  }

 private:
  enum class State : std::uint8_t { kReleased, kOpen, kClosed };
  static constexpr std::uint32_t kNoOutput = ~std::uint32_t{0};
  struct Ticket {
    std::uint64_t flow = 0;
    std::uint64_t next = 0;  // next ticket of the flow; 0 while newest
    std::uint32_t first_output = kNoOutput;  // in attach order
    std::uint32_t last_output = kNoOutput;
    State state = State::kReleased;
  };
  struct OutputNode {
    Output out;
    std::uint32_t next = kNoOutput;  // next output, or next free node
  };
  /// A flow with unreleased tickets; head 0 marks an empty table slot.
  struct Flow {
    std::uint64_t flow = 0;
    std::uint64_t head = 0;  // oldest unreleased ticket
    std::uint64_t tail = 0;  // newest ticket
  };
  static constexpr std::size_t kNoFlow = ~std::size_t{0};

  Ticket& at(std::uint64_t id) { return ring_[id & (ring_.size() - 1)]; }
  /// The open or closed ticket `id`; throws naming `op` otherwise.
  Ticket& live(std::uint64_t id, const char* op);
  void grow_ring();
  std::size_t home(std::uint64_t flow) const;
  std::size_t find_flow(std::uint64_t flow) const;
  void insert_flow(std::uint64_t flow, std::uint64_t id);
  void erase_flow(std::size_t slot);
  void flush(std::uint64_t flow);

  Release release_;
  std::vector<Ticket> ring_;     // by id & (size - 1); size 0 or 2^k
  std::uint64_t oldest_ = 1;     // every ticket below it is released
  std::uint64_t next_ticket_ = 1;
  std::size_t pending_ = 0;
  std::vector<Flow> flows_;      // linear probing; size 0 or 2^k
  std::size_t flow_count_ = 0;   // at most half of flows_
  std::vector<OutputNode> outputs_;
  std::uint32_t free_output_ = kNoOutput;
  telemetry::Counter released_;
  telemetry::Gauge pending_gauge_;
};

}  // namespace trio
