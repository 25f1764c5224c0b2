#include "trio/pfe.hpp"

#include <stdexcept>

#include "trio/hash.hpp"
#include "trio/router.hpp"
#include "trio/trace_rows.hpp"

namespace trio {

// ---------------------------------------------------------------------------
// Mqss

Mqss::Mqss(sim::Simulator& simulator, const Calibration& cal)
    : sim_(simulator), cal_(cal) {}

void Mqss::instrument(telemetry::Telemetry& telem, int pid,
                      std::string_view prefix) {
  telem.metrics.bind(tail_bytes_read_, prefix, "mqss.tail_bytes_read");
  telem.metrics.bind(pmem_bytes_written_, prefix, "mqss.pmem_bytes_written");
  if (telem.tracer.enabled()) {
    tracer_ = &telem.tracer;
    trace_pid_ = pid;
    telem.tracer.set_thread_name(pid, trace_rows::kMqss, "mqss");
  }
}

sim::Time Mqss::service(std::size_t len, sim::Duration latency,
                        const char* op_name) {
  // The packet buffer moves 64 B per cycle; the single engine's occupancy
  // provides backpressure under heavy tail traffic.
  const auto cycles = static_cast<std::int64_t>((len + 63) / 64);
  const sim::Time arrive = sim_.now() + cal_.crossbar_latency;
  const sim::Time start = arrive > engine_free_ ? arrive : engine_free_;
  engine_free_ = start + sim::Duration::cycles(cycles, cal_.clock_hz);
  if (tracer_ != nullptr) {
    tracer_->complete(trace_pid_, trace_rows::kMqss, op_name, start,
                      engine_free_);
  }
  return engine_free_ + latency;
}

sim::Time Mqss::tail_read(const net::Packet& pkt, std::uint64_t offset,
                          std::uint32_t len, XtxnReply& reply) {
  if (len > cal_.tail_chunk_bytes) {
    throw std::invalid_argument("Mqss::tail_read: chunk exceeds 64 bytes");
  }
  const std::size_t head = pkt.head_size();
  if (offset + len > pkt.tail_size()) {
    throw std::out_of_range("Mqss::tail_read: beyond tail");
  }
  tail_bytes_read_.inc(len);
  reply.reset();
  reply.data.assign(pkt.frame().view(head + offset, len));
  return service(len, cal_.tail_read_latency, "tail_read");
}

sim::Time Mqss::pmem_write(std::size_t len, XtxnReply& reply) {
  if (len > cal_.pmem_chunk_bytes) {
    throw std::invalid_argument("Mqss::pmem_write: chunk exceeds 256 bytes");
  }
  pmem_bytes_written_.inc(len);
  reply.reset();
  return service(len, cal_.pmem_write_latency, "pmem_write");
}

// ---------------------------------------------------------------------------
// MqssTenantScheduler

MqssTenantScheduler::MqssTenantScheduler(sim::Simulator& simulator,
                                         net::LinkEndpoint& tx, SendFn send)
    : sim_(simulator), tx_(tx), send_(std::move(send)) {}

MqssTenantScheduler::TenantQueue& MqssTenantScheduler::queue_of(
    std::uint8_t tenant) {
  for (auto& q : queues_) {
    if (q.tenant == tenant) return q;
  }
  queues_.push_back(TenantQueue{tenant, 1, 0, {}, 0, 0});
  return queues_.back();
}

const MqssTenantScheduler::TenantQueue* MqssTenantScheduler::find_queue(
    std::uint8_t tenant) const {
  for (const auto& q : queues_) {
    if (q.tenant == tenant) return &q;
  }
  return nullptr;
}

void MqssTenantScheduler::set_weight(std::uint8_t tenant,
                                     std::uint32_t weight) {
  if (weight == 0) {
    throw std::invalid_argument("MqssTenantScheduler: zero weight");
  }
  queue_of(tenant).weight = weight;
}

std::uint32_t MqssTenantScheduler::weight(std::uint8_t tenant) const {
  const TenantQueue* q = find_queue(tenant);
  return q == nullptr ? 1 : q->weight;
}

std::uint64_t MqssTenantScheduler::drops(std::uint8_t tenant) const {
  const TenantQueue* q = find_queue(tenant);
  return q == nullptr ? 0 : q->drops;
}

std::uint64_t MqssTenantScheduler::sent(std::uint8_t tenant) const {
  const TenantQueue* q = find_queue(tenant);
  return q == nullptr ? 0 : q->sent;
}

bool MqssTenantScheduler::enqueue(std::uint8_t tenant, net::PacketPtr pkt) {
  TenantQueue& q = queue_of(tenant);
  if (q.fifo.size() >= kQueueFrames) {
    ++q.drops;
    return false;
  }
  q.fifo.push_back(std::move(pkt));
  ++backlog_;
  if (!armed_) {
    const sim::Time free = tx_.busy_until();
    arm(free > sim_.now() ? free : sim_.now());
  }
  return true;
}

void MqssTenantScheduler::arm(sim::Time at) {
  armed_ = true;
  sim_.schedule_at(at, [this] {
    armed_ = false;
    drain();
  });
}

void MqssTenantScheduler::drain() {
  if (backlog_ == 0) return;
  const sim::Time free = tx_.busy_until();
  if (free > sim_.now()) {  // wire grabbed since this event was armed
    arm(free);
    return;
  }
  // Weighted deficit round robin, one frame per wire-free event: visit
  // queues in fixed order, crediting weight*quantum per visit; the first
  // queue whose head fits its deficit transmits.
  while (true) {
    TenantQueue& q = queues_[rr_];
    if (q.fifo.empty()) {
      q.deficit = 0;  // idle tenants bank no credit
      rr_ = (rr_ + 1) % queues_.size();
      continue;
    }
    const auto head_bytes =
        static_cast<std::int64_t>(q.fifo.front()->frame().size());
    if (q.deficit < head_bytes) {
      q.deficit += static_cast<std::int64_t>(q.weight) * kQuantumBytes;
      rr_ = (rr_ + 1) % queues_.size();
      continue;
    }
    q.deficit -= head_bytes;
    net::PacketPtr pkt = q.fifo.pop_front();
    ++q.sent;
    --backlog_;
    if (q.fifo.empty()) q.deficit = 0;
    send_(std::move(pkt));  // advances tx_.busy_until() on success
    break;
  }
  if (backlog_ > 0) {
    const sim::Time free_next = tx_.busy_until();
    arm(free_next > sim_.now() ? free_next : sim_.now());
  }
}

// ---------------------------------------------------------------------------
// Pfe

Pfe::Pfe(sim::Simulator& simulator, const Calibration& cal, Router& router,
         int index)
    : sim_(simulator),
      cal_(cal),
      router_(router),
      index_(index),
      sms_(simulator, cal),
      hash_(simulator, cal),
      mqss_(simulator, cal),
      reorder_([this](ReorderEngine::Output out) {
        router_.transmit(index_, std::move(out.pkt), out.nexthop_id);
      }) {
  telemetry::Telemetry& telem = router.telemetry();
  const TelemetryScope& scope = router.telemetry_scope();
  metric_prefix_ = scope.metric_prefix + "pfe" + std::to_string(index) + ".";
  trace_pid_ = scope.trace_pid_base + trace_rows::pid_of_pfe(index);
  if (telem.tracer.enabled()) {
    tracer_ = &telem.tracer;
    tracer_->set_process_name(
        trace_pid_, scope.process_prefix + "pfe" + std::to_string(index));
    tracer_->set_thread_name(trace_pid_, trace_rows::kDispatch, "dispatch");
    tracer_->set_thread_name(trace_pid_, trace_rows::kReorder, "reorder");
    tracer_->set_thread_name(trace_pid_, trace_rows::kCrossbar, "crossbar");
  }
  telem.metrics.bind(packets_in_, metric_prefix_, "packets_in");
  telem.metrics.bind(packets_dispatched_, metric_prefix_, "packets_dispatched");
  telem.metrics.bind(dispatch_drops_, metric_prefix_, "dispatch_drops");
  dispatch_depth_gauge_ =
      telem.metrics.gauge(metric_prefix_, "dispatch_queue_depth");
  sms_.instrument(telem, trace_pid_, metric_prefix_);
  mqss_.instrument(telem, trace_pid_, metric_prefix_);
  reorder_.instrument(telem.metrics, metric_prefix_);
  ppes_.reserve(static_cast<std::size_t>(cal_.ppes_per_pfe));
  for (int i = 0; i < cal_.ppes_per_pfe; ++i) {
    ppes_.push_back(std::make_unique<Ppe>(simulator, cal_, *this, i));
    ppes_.back()->instrument(telem, trace_pid_, metric_prefix_);
  }
  timers_ = std::make_unique<TimerWheel>(simulator, cal_, *this);
}

std::uint64_t compute_flow_hash(const net::Buffer& frame) {
  if (frame.size() < net::UdpFrameLayout::kIpOff + net::Ipv4Header::kSize) {
    return 1;
  }
  const auto eth = net::EthernetHeader::parse(frame, 0);
  if (eth.ether_type != net::EthernetHeader::kEtherTypeIpv4) return 1;
  const auto ip = net::Ipv4Header::parse(frame, net::UdpFrameLayout::kIpOff);
  std::uint64_t h =
      hash_pair(std::uint64_t(ip.src.value()) << 32 | ip.dst.value(),
                ip.protocol);
  if ((ip.protocol == net::Ipv4Header::kProtoUdp ||
       ip.protocol == net::Ipv4Header::kProtoTcp) &&
      frame.size() >= net::UdpFrameLayout::kUdpOff + 4) {
    const std::size_t l4 = net::UdpFrameLayout::kIpOff + ip.header_bytes();
    if (frame.size() >= l4 + 4) {
      h = hash_pair(h, std::uint64_t(frame.u16(l4)) << 16 | frame.u16(l4 + 2));
    }
  }
  return h == 0 ? 1 : h;
}

void Pfe::ingress(net::PacketPtr pkt) {
  packets_in_.inc();
  pkt->set_arrival_time(sim_.now());
  // Open the reorder ticket in arrival order, before any queueing: the
  // Reorder Engine keeps packets with equal flow hash in that order.
  const std::uint64_t flow_hash = compute_flow_hash(pkt->frame());
  const std::uint64_t ticket = reorder_.open(flow_hash);
  note_reorder_depth();
  if (dispatch_queue_.size() >= cal_.dispatch_queue_limit) {
    dispatch_drops_.inc();
    reorder_.close(ticket);  // consumed with no output
    note_reorder_depth();
    return;
  }
  dispatch_queue_.push_back(Pending{std::move(pkt), ticket});
  note_dispatch_depth();
  try_dispatch();
}

Ppe* Pfe::pick_ppe() {
  // The Dispatch module sends the head to a PPE "based on availability":
  // choose the PPE with the most free thread slots.
  Ppe* best = nullptr;
  int best_free = 0;
  for (auto& p : ppes_) {
    const int f = p->free_threads();
    if (f > best_free) {
      best_free = f;
      best = p.get();
    }
  }
  return best;
}

void Pfe::try_dispatch() {
  // Internal (timer/event) launches take the freed slot first.
  while (!internal_queue_.empty()) {
    Ppe* ppe = pick_ppe();
    if (ppe == nullptr) return;
    PendingInternal pi = internal_queue_.pop_front();
    ppe->spawn(std::move(pi.program), nullptr, std::nullopt, pi.timer_index);
  }
  while (!dispatch_queue_.empty()) {
    Ppe* ppe = pick_ppe();
    if (ppe == nullptr) return;  // all threads busy; wait for a free slot
    Pending pending = dispatch_queue_.pop_front();
    note_dispatch_depth();
    ProgramPtr program = program_factory_
                             ? program_factory_(*pending.pkt)
                             : router_.make_forwarding_program();
    if (!program) {
      dispatch_drops_.inc();
      reorder_.close(pending.ticket);
      note_reorder_depth();
      continue;
    }
    packets_dispatched_.inc();
    ppe->spawn(std::move(program), std::move(pending.pkt), pending.ticket, 0);
  }
}

bool Pfe::spawn_internal(ProgramPtr program, std::uint32_t timer_index) {
  Ppe* ppe = pick_ppe();
  if (ppe != nullptr) {
    return ppe->spawn(std::move(program), nullptr, std::nullopt, timer_index);
  }
  if (internal_queue_.size() >= kInternalQueueLimit) return false;
  internal_queue_.push_back(PendingInternal{std::move(program), timer_index});
  return true;
}

sim::Time Pfe::issue_xtxn(const XtxnRequest& req, const net::PacketPtr& pkt,
                          XtxnReply& reply) {
  if (tracer_ != nullptr) {
    // Every XTXN crosses the PPE<->memory crossbar on its way to a block.
    tracer_->instant(trace_pid_, trace_rows::kCrossbar, xtxn_op_name(req.op),
                     sim_.now());
  }
  switch (req.op) {
    case XtxnOp::kHashLookup:
    case XtxnOp::kHashInsert:
    case XtxnOp::kHashDelete:
    case XtxnOp::kHashScanStep:
      return hash_.issue(req, reply);
    case XtxnOp::kTailRead:
      if (!pkt) {
        throw std::logic_error("kTailRead issued by a packet-less thread");
      }
      return mqss_.tail_read(*pkt, req.addr, req.len, reply);
    case XtxnOp::kPmemWrite:
      return mqss_.pmem_write(req.len, reply);
    default:
      return sms_.issue(req, reply);
  }
}

void Pfe::emit(std::optional<std::uint64_t> ticket, ReorderEngine::Output out) {
  if (ticket) {
    reorder_.attach(*ticket, std::move(out));
  } else {
    // Internally generated packet (timer thread): no ordering constraint.
    router_.transmit(index_, std::move(out.pkt), out.nexthop_id);
  }
}

void Pfe::close_ticket(std::uint64_t ticket) {
  reorder_.close(ticket);
  note_reorder_depth();
}

void Pfe::note_dispatch_depth() {
  const auto depth = dispatch_queue_.size();
  dispatch_depth_gauge_.set(static_cast<std::int64_t>(depth));
  if (tracer_ != nullptr) {
    tracer_->counter(trace_pid_, "dispatch", "queue_depth", sim_.now(),
                     static_cast<double>(depth));
  }
}

void Pfe::note_reorder_depth() {
  if (tracer_ != nullptr) {
    tracer_->counter(trace_pid_, "reorder", "pending", sim_.now(),
                     static_cast<double>(reorder_.pending()));
  }
}

void Pfe::on_thread_free() { try_dispatch(); }

int Pfe::free_threads() const {
  int n = 0;
  for (const auto& p : ppes_) n += p->free_threads();
  return n;
}

int Pfe::active_threads() const {
  int n = 0;
  for (const auto& p : ppes_) n += p->active_threads();
  return n;
}

std::uint64_t Pfe::instructions_issued() const {
  std::uint64_t n = 0;
  for (const auto& p : ppes_) n += p->instructions_issued();
  return n;
}

}  // namespace trio
