// A Packet Forwarding Engine (paper §2.1, Fig 2): the central processing
// element of the forwarding plane. Owns its PPEs, the Dispatch module
// (availability-based packet-to-PPE assignment), the Reorder Engine, the
// Shared Memory System, the hardware hash block, and the Memory &
// Queueing Subsystem's packet-tail store.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/ring_queue.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"
#include "trio/calibration.hpp"
#include "trio/hash_table.hpp"
#include "trio/ppe.hpp"
#include "trio/program.hpp"
#include "trio/reorder.hpp"
#include "trio/sms.hpp"
#include "trio/timer.hpp"

namespace trio {

class Router;

/// Lightweight model of the Memory & Queueing Subsystem's packet buffer:
/// tails are read in <=64 B chunks and new tails written in <=256 B chunks
/// through a single service engine whose occupancy creates backpressure.
class Mqss {
 public:
  Mqss(sim::Simulator& simulator, const Calibration& cal);

  /// Reads `len` bytes at `offset` within the packet's tail into
  /// `reply`'s data at once; returns the time they reach the thread.
  sim::Time tail_read(const net::Packet& pkt, std::uint64_t offset,
                      std::uint32_t len, XtxnReply& reply);

  /// Timed write of a chunk of a new packet's tail (the data itself stays
  /// with the emitting program). `reply` becomes a fresh, empty reply.
  sim::Time pmem_write(std::size_t len, XtxnReply& reply);

  std::uint64_t tail_bytes_read() const { return tail_bytes_read_.value(); }
  std::uint64_t pmem_bytes_written() const {
    return pmem_bytes_written_.value();
  }

  /// Binds the byte counters as `<prefix>mqss.*`; when tracing, each
  /// chunk becomes a service span on the PFE's "mqss" row. Called by the
  /// owning Pfe with its metric prefix.
  void instrument(telemetry::Telemetry& telem, int pid,
                  std::string_view prefix);

 private:
  sim::Time service(std::size_t len, sim::Duration latency,
                    const char* op_name);

  sim::Simulator& sim_;
  const Calibration& cal_;
  sim::Time engine_free_;
  telemetry::Counter tail_bytes_read_;
  telemetry::Counter pmem_bytes_written_;
  telemetry::Tracer* tracer_ = nullptr;
  int trace_pid_ = 0;
};

/// Maps an egress frame to the tenant class it belongs to (0 = the
/// default / untenanted class). Installed by the jobs layer
/// (src/jobs/, docs/jobs.md).
using TenantClassifier = std::function<std::uint8_t(const net::Packet&)>;

/// MQSS per-tenant weighted egress scheduler (paper §2.2's shaped queues,
/// put to work for multi-tenant isolation — docs/jobs.md).
///
/// One instance guards one front-panel port. Each tenant gets its own
/// FIFO of kQueueFrames frames; the scheduler drains them with weighted
/// deficit round robin, one frame per wire-free event, so a bursting
/// tenant can delay a competitor by at most one frame plus its own
/// weighted share.
/// With the scheduler absent (the default), egress is the historical
/// single FIFO of the attached link.
class MqssTenantScheduler {
 public:
  using SendFn = std::function<void(net::PacketPtr)>;

  /// Depth of each tenant's FIFO.
  static constexpr std::size_t kQueueFrames = 256;

  /// `tx` is the port's wire (consulted for busy_until()); `send` performs
  /// the actual transmit (the router's egress path, so kill semantics and
  /// tx counters apply at true send time, not enqueue time).
  MqssTenantScheduler(sim::Simulator& simulator, net::LinkEndpoint& tx,
                      SendFn send);

  /// Relative drain weight (>=1; default 1). Creates the tenant's queue,
  /// fixing its round-robin position — register tenants in admission
  /// order for deterministic schedules.
  void set_weight(std::uint8_t tenant, std::uint32_t weight);
  std::uint32_t weight(std::uint8_t tenant) const;

  /// Queues a frame on `tenant`'s FIFO. False (frame dropped, counted
  /// against the tenant) when that FIFO is full.
  bool enqueue(std::uint8_t tenant, net::PacketPtr pkt);

  std::uint64_t drops(std::uint8_t tenant) const;
  std::uint64_t sent(std::uint8_t tenant) const;
  std::size_t backlog() const { return backlog_; }

 private:
  struct TenantQueue {
    std::uint8_t tenant;
    std::uint32_t weight = 1;
    std::int64_t deficit = 0;
    sim::RingQueue<net::PacketPtr> fifo;
    std::uint64_t drops = 0;
    std::uint64_t sent = 0;
  };

  // One DRR quantum per weight unit: enough for a full-size frame so a
  // weight-1 tenant still progresses one frame per round.
  static constexpr std::int64_t kQuantumBytes = 2048;

  TenantQueue& queue_of(std::uint8_t tenant);
  const TenantQueue* find_queue(std::uint8_t tenant) const;
  void arm(sim::Time at);
  void drain();

  sim::Simulator& sim_;
  net::LinkEndpoint& tx_;
  SendFn send_;
  std::vector<TenantQueue> queues_;  // round-robin order = creation order
  std::size_t rr_ = 0;
  std::size_t backlog_ = 0;
  bool armed_ = false;
};

class Pfe {
 public:
  Pfe(sim::Simulator& simulator, const Calibration& cal, Router& router,
      int index);

  /// Packet entering this PFE for processing (from a front-panel port or
  /// from the fabric in hierarchical-aggregation mode).
  void ingress(net::PacketPtr pkt);

  /// Program selection. The factory sees the arriving packet; returning
  /// nullptr drops it. Defaults to the router's IP forwarding program.
  void set_program_factory(ProgramFactory factory) {
    program_factory_ = std::move(factory);
  }
  /// The currently installed factory (empty before any install). Apps that
  /// stack on one PFE capture this and fall through to it for packets they
  /// don't claim (netrpc ahead of trioml ahead of plain forwarding).
  const ProgramFactory& program_factory() const { return program_factory_; }

  /// Spawns an internal (timer / event) thread on any available PPE.
  /// When every thread is busy the launch is queued and served ahead of
  /// the packet dispatch queue at the next thread-free event (timer
  /// threads must make progress on a saturated PFE — §5 relies on it).
  /// Returns false only when the internal queue overflows.
  bool spawn_internal(ProgramPtr program, std::uint32_t timer_index);

  /// Routes an XTXN to its target block (SMS, hash, MQSS), which applies
  /// it and writes its reply to `reply` at once. `pkt` supplies the tail
  /// for kTailRead. Returns the reply time.
  sim::Time issue_xtxn(const XtxnRequest& req, const net::PacketPtr& pkt,
                       XtxnReply& reply);

  /// Called by PPE threads: attach an output to a reorder ticket, or send
  /// directly when the thread has no ticket (internally generated packet).
  void emit(std::optional<std::uint64_t> ticket, ReorderEngine::Output out);
  void close_ticket(std::uint64_t ticket);
  void on_thread_free();

  SharedMemorySystem& sms() { return sms_; }
  HwHashTable& hash_table() { return hash_; }
  Mqss& mqss() { return mqss_; }
  ReorderEngine& reorder() { return reorder_; }
  /// PPE `i`, 0 <= i < cal().ppes_per_pfe.
  Ppe& ppe(int i) { return *ppes_.at(static_cast<std::size_t>(i)); }
  TimerWheel& timers() { return *timers_; }
  Router& router() { return router_; }
  const Calibration& cal() const { return cal_; }
  int index() const { return index_; }

  int free_threads() const;
  int active_threads() const;
  std::uint64_t packets_in() const { return packets_in_.value(); }
  std::uint64_t packets_dropped_dispatch() const {
    return dispatch_drops_.value();
  }
  std::uint64_t instructions_issued() const;
  std::size_t dispatch_queue_depth() const { return dispatch_queue_.size(); }

  /// This PFE's trace process id and tracer (null when tracing is off);
  /// used by the PPEs and by applications that add their own rows.
  int trace_pid() const { return trace_pid_; }
  telemetry::Tracer* tracer() { return tracer_; }
  /// Metric name prefix for this PFE ("pfe0.").
  const std::string& metric_prefix() const { return metric_prefix_; }

 private:
  void try_dispatch();
  Ppe* pick_ppe();
  void note_dispatch_depth();
  void note_reorder_depth();

  sim::Simulator& sim_;
  Calibration cal_;
  Router& router_;
  int index_;
  SharedMemorySystem sms_;
  HwHashTable hash_;
  Mqss mqss_;
  ReorderEngine reorder_;
  std::vector<std::unique_ptr<Ppe>> ppes_;
  std::unique_ptr<TimerWheel> timers_;
  ProgramFactory program_factory_;

  struct Pending {
    net::PacketPtr pkt;
    std::uint64_t ticket = 0;
  };
  sim::RingQueue<Pending> dispatch_queue_;

  struct PendingInternal {
    ProgramPtr program;
    std::uint32_t timer_index = 0;
  };
  sim::RingQueue<PendingInternal> internal_queue_;
  static constexpr std::size_t kInternalQueueLimit = 512;

  telemetry::Counter packets_in_;
  telemetry::Counter packets_dispatched_;
  telemetry::Counter dispatch_drops_;

  std::string metric_prefix_;
  telemetry::Gauge dispatch_depth_gauge_;
  telemetry::Tracer* tracer_ = nullptr;
  int trace_pid_ = 0;
};

/// Flow hash for the Dispatch module / Reorder Engine: IPv4 5-tuple when
/// the frame is IPv4 (plus ports for UDP/TCP), else a constant flow.
std::uint64_t compute_flow_hash(const net::Buffer& frame);

}  // namespace trio
