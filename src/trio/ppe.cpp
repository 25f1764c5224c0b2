#include "trio/ppe.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "trio/pfe.hpp"
#include "trio/router.hpp"
#include "trio/xtxn.hpp"

namespace trio {

Ppe::Ppe(sim::Simulator& simulator, const Calibration& cal, Pfe& pfe,
         int index)
    : sim_(simulator), cal_(cal), pfe_(pfe), index_(index) {
  threads_.resize(static_cast<std::size_t>(cal_.threads_per_ppe));
  free_slots_.reserve(threads_.size());
  for (int i = static_cast<int>(threads_.size()) - 1; i >= 0; --i) {
    free_slots_.push_back(i);
  }
}

void Ppe::instrument(telemetry::Telemetry& telem, int pid,
                     std::string_view prefix) {
  telem.metrics.bind(instructions_issued_, prefix, "instructions");
  telem.metrics.bind(threads_started_, prefix, "threads_started");
  if (telem.tracer.enabled()) {
    tracer_ = &telem.tracer;
    trace_pid_ = pid;
    for (int slot = 0; slot < cal_.threads_per_ppe; ++slot) {
      char label[32];
      std::snprintf(label, sizeof(label), "ppe%02d.t%02d", index_, slot);
      telem.tracer.set_thread_name(pid, tid_of(slot), label);
    }
  }
}

bool Ppe::spawn(ProgramPtr program, net::PacketPtr pkt,
                std::optional<std::uint64_t> ticket,
                std::uint32_t timer_index) {
  if (free_slots_.empty()) return false;
  const int slot = free_slots_.back();
  free_slots_.pop_back();

  Thread& th = threads_[static_cast<std::size_t>(slot)];
  // Reset in place rather than assigning a fresh ThreadContext: the LMEM
  // and register vectors keep their capacity across thread lifetimes, so
  // steady-state dispatch does not touch the allocator.
  th.ctx.lmem.resize(cal_.lmem_bytes);
  std::ranges::fill(th.ctx.lmem.mutable_bytes(), 0);
  th.ctx.regs.assign(static_cast<std::size_t>(cal_.gprs_per_thread), 0);
  th.ctx.packet = std::move(pkt);
  th.ctx.reply.reset();
  th.ctx.instructions_executed = 0;
  th.ctx.timer_index = timer_index;
  th.ctx.spawn_time = sim_.now();
  th.ctx.ppe_index = index_;
  th.ctx.thread_slot = slot;
  if (th.ctx.packet) {
    // The Dispatch module DMAs the packet head into thread LMEM (§2.2
    // "Before a PPE thread is initiated, the packet head is loaded into
    // the local memory of that thread").
    const auto head = th.ctx.packet->frame().view(0, th.ctx.packet->head_size());
    th.ctx.lmem.write(0, head);
  }
  th.program = std::move(program);
  th.ticket = ticket;
  th.async_done_at = sim_.now();
  th.active = true;
  threads_started_.inc();

  auto step = [this, slot] { advance(slot); };
  static_assert(sim::InlineCallback::stores_inline<decltype(step)>());
  sim_.schedule_in(cal_.dispatch_overhead, step);
  return true;
}

void Ppe::advance(int slot) {
  Thread& th = threads_[static_cast<std::size_t>(slot)];
  if (!th.active) {
    throw std::logic_error("Ppe::advance on inactive thread");
  }
  if (pfe_.router().killed()) {
    // Power loss (Router::kill) destroys in-flight threads: unwind
    // through finish() at the next scheduled step, with no further
    // program steps — a dead chip must not keep mutating SMS/hash state
    // that the recovery control plane already invalidated.
    finish(slot);
    return;
  }
  Action action = th.program->step(th.ctx);
  const std::uint32_t k = action_instructions(action);
  th.ctx.instructions_executed += k;
  instructions_issued_.inc(k);

  const sim::Time start = sim_.now() > issue_free_ ? sim_.now() : issue_free_;
  issue_free_ = start + cal_.issue_interval * k;
  const sim::Time done = start + cal_.instr_latency * k;
  perform(slot, action, done);
}

void Ppe::perform(int slot, Action& action, sim::Time done) {
  Thread& th = threads_[static_cast<std::size_t>(slot)];
  auto step = [this, slot] { advance(slot); };
  static_assert(sim::InlineCallback::stores_inline<decltype(step)>());
  if (std::holds_alternative<ActContinue>(action)) {
    sim_.schedule_at(done, step);
  } else if (auto* sx = std::get_if<ActSyncXtxn>(&action)) {
    // The thread suspends until the reply returns (§3.1 synchronous XTXN).
    // The request is parked in the thread record so the scheduled closure
    // captures only (this, slot): the request with its inline payload
    // would blow the inline-callback budget.
    th.pending_sync_req = std::move(sx->req);
    sim_.schedule_at(done, [this, slot] { issue_pending_sync(slot); });
  } else if (auto* ax = std::get_if<ActAsyncXtxn>(&action)) {
    if (!xtxn_is_posted(ax->req.op)) {
      throw std::logic_error("Ppe: async XTXN must be a posted operation");
    }
    // Posted: apply and account bank occupancy now (the skew versus `done`
    // is at most one step), no wake-up.
    const sim::Time reply_at =
        pfe_.issue_xtxn(ax->req, th.ctx.packet, posted_reply_);
    if (reply_at > th.async_done_at) th.async_done_at = reply_at;
    sim_.schedule_at(done, step);
  } else if (std::holds_alternative<ActJoinAsync>(action)) {
    const sim::Time resume =
        th.async_done_at > done ? th.async_done_at : done;
    sim_.schedule_at(resume, step);
  } else if (auto* em = std::get_if<ActEmitPacket>(&action)) {
    auto emit = [this, slot, pkt = std::move(em->pkt),
                 nh = em->nexthop_id]() mutable {
      Thread& t = threads_[static_cast<std::size_t>(slot)];
      pfe_.emit(t.ticket, ReorderEngine::Output{std::move(pkt), nh});
      advance(slot);
    };
    static_assert(sim::InlineCallback::stores_inline<decltype(emit)>());
    sim_.schedule_at(done, std::move(emit));
  } else if (std::holds_alternative<ActExit>(action)) {
    sim_.schedule_at(done, [this, slot] { finish(slot); });
  } else {
    throw std::logic_error("Ppe: unknown action");
  }
}

void Ppe::issue_pending_sync(int slot) {
  if (pfe_.router().killed()) {
    // The XTXN would otherwise still be applied by a powered-off chip.
    finish(slot);
    return;
  }
  Thread& t = threads_[static_cast<std::size_t>(slot)];
  const sim::Time issued = sim_.now();
  const XtxnOp op = t.pending_sync_req.op;
  // The block writes the reply into ctx.reply now; the thread cannot read
  // it before it wakes at the reply time.
  const sim::Time reply_at =
      pfe_.issue_xtxn(t.pending_sync_req, t.ctx.packet, t.ctx.reply);
  auto wake = [this, slot, issued, op] {
    if (tracer_ != nullptr) {
      tracer_->complete(trace_pid_, tid_of(slot),
                        std::string("stall:") + xtxn_op_name(op), issued,
                        sim_.now());
    }
    advance(slot);
  };
  static_assert(sim::InlineCallback::stores_inline<decltype(wake)>());
  sim_.schedule_at(reply_at, wake);
}

void Ppe::finish(int slot) {
  Thread& th = threads_[static_cast<std::size_t>(slot)];
  const auto ticket = th.ticket;
  if (tracer_ != nullptr) {
    // One span per thread lifetime: dispatch-to-destruction.
    tracer_->complete(trace_pid_, tid_of(slot),
                      th.ctx.packet ? "packet" : "timer", th.ctx.spawn_time,
                      sim_.now());
  }
  th.program.reset();
  th.ctx.packet.reset();
  th.active = false;
  free_slots_.push_back(slot);
  // Thread destruction is hardware-managed (§2.2): close the reorder
  // ticket and let Dispatch hand a queued packet to the freed slot.
  if (ticket) pfe_.close_ticket(*ticket);
  pfe_.on_thread_free();
}

}  // namespace trio
