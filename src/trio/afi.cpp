#include "trio/afi.hpp"

#include <algorithm>

#include "trio/router.hpp"

namespace trio {
namespace afi {

OpId Sandbox::add(Operation op) {
  const OpId id = next_id_++;
  chain_.push_back(Entry{id, std::move(op)});
  return id;
}

OpId Sandbox::insert_before(OpId before, Operation op) {
  const OpId id = next_id_++;
  auto it = std::find_if(chain_.begin(), chain_.end(),
                         [&](const Entry& e) { return e.id == before; });
  chain_.insert(it, Entry{id, std::move(op)});
  return id;
}

bool Sandbox::remove(OpId id) {
  auto it = std::find_if(chain_.begin(), chain_.end(),
                         [&](const Entry& e) { return e.id == id; });
  if (it == chain_.end()) return false;
  chain_.erase(it);
  return true;
}

bool Sandbox::reorder(OpId id, std::size_t index) {
  auto it = std::find_if(chain_.begin(), chain_.end(),
                         [&](const Entry& e) { return e.id == id; });
  if (it == chain_.end() || index >= chain_.size()) return false;
  Entry e = std::move(*it);
  chain_.erase(it);
  chain_.insert(chain_.begin() + static_cast<std::ptrdiff_t>(index),
                std::move(e));
  return true;
}

std::vector<OpId> Sandbox::op_ids() const {
  std::vector<OpId> out;
  out.reserve(chain_.size());
  for (const auto& e : chain_) out.push_back(e.id);
  return out;
}

namespace {

/// Executes a sandbox's operation chain on one packet, then (unless a
/// filter/policer dropped it or a NexthopOp emitted it) falls through to
/// the router's default forwarding program.
class SandboxProgram : public PpeProgram {
 public:
  SandboxProgram(Sandbox& sandbox, Pfe& pfe) : sandbox_(sandbox), pfe_(pfe) {}

  Action step(ThreadContext& ctx) override {
    // Resolve a pending policer verdict first.
    if (awaiting_policer_) {
      awaiting_policer_ = false;
      if (ctx.reply.value == 0) {
        sandbox_.note_drop();
        const auto* pol = std::get_if<PoliceOp>(&sandbox_.op_at(idx_));
        if (pol != nullptr && pol->drop_counter_addr != 0) {
          ActAsyncXtxn cnt;
          cnt.req.op = XtxnOp::kCounterInc;
          cnt.req.addr = pol->drop_counter_addr;
          cnt.req.arg0 = ctx.packet->size();
          cnt.instructions = 2;
          dropping_ = true;
          return cnt;
        }
        return ActExit{2};
      }
      ++idx_;
    }
    if (dropping_) return ActExit{1};
    if (delegate_) return delegate_->step(ctx);

    if (!counted_) {
      counted_ = true;
      sandbox_.note_packet();
    }
    while (idx_ < sandbox_.size()) {
      const Operation& op = sandbox_.op_at(idx_);
      if (const auto* c = std::get_if<CountOp>(&op)) {
        ActAsyncXtxn cnt;
        cnt.req.op = XtxnOp::kCounterInc;
        cnt.req.addr = c->counter_addr;
        cnt.req.arg0 = ctx.packet->size();
        cnt.instructions = 2;
        ++idx_;
        return cnt;
      }
      if (const auto* p = std::get_if<PoliceOp>(&op)) {
        ActSyncXtxn pol;
        pol.req.op = XtxnOp::kPolicerCheck;
        pol.req.addr = p->policer_addr;
        pol.req.arg0 = ctx.packet->size();
        pol.instructions = 4;
        awaiting_policer_ = true;
        return pol;
      }
      if (const auto* f = std::get_if<FilterOp>(&op)) {
        if (f->drop_if && f->drop_if(ctx.lmem)) {
          sandbox_.note_drop();
          return ActExit{3};
        }
        ++idx_;
        continue;  // pure head inspection: folded into the next action
      }
      if (const auto* d = std::get_if<SetDscpOp>(&op)) {
        // Rewrite in LMEM and in the frame head (the head is unloaded on
        // emit by the default path, which reads the frame).
        ctx.lmem.set_u8(net::UdpFrameLayout::kIpOff + 1, d->dscp);
        ctx.packet->frame().set_u8(net::UdpFrameLayout::kIpOff + 1, d->dscp);
        ++idx_;
        return ActContinue{3};
      }
      if (const auto* nh = std::get_if<NexthopOp>(&op)) {
        emitted_ = true;
        ActEmitPacket emit;
        emit.pkt = ctx.packet;
        emit.nexthop_id = nh->nexthop_id;
        emit.instructions = 4;
        ++idx_;
        return emit;
      }
      if (std::holds_alternative<DefaultForwardOp>(op)) {
        delegate_ = pfe_.router().make_forwarding_program();
        return delegate_->step(ctx);
      }
      ++idx_;
    }
    // Chain exhausted: if nothing emitted the packet, take the default
    // forwarding path (a sandbox augments forwarding, §3.1).
    if (emitted_) return ActExit{1};
    delegate_ = pfe_.router().make_forwarding_program();
    return delegate_->step(ctx);
  }

 private:
  Sandbox& sandbox_;
  Pfe& pfe_;
  std::size_t idx_ = 0;
  bool counted_ = false;
  bool awaiting_policer_ = false;
  bool dropping_ = false;
  bool emitted_ = false;
  ProgramPtr delegate_;
};

}  // namespace

Sandbox* AfiHost::create_sandbox(std::string name, Match match) {
  bindings_.push_back(
      Binding{std::move(match), std::make_unique<Sandbox>(std::move(name))});
  return bindings_.back().sandbox.get();
}

void AfiHost::attach() {
  pfe_.set_program_factory(
      [this](const net::Packet& pkt) -> ProgramPtr {
        for (auto& b : bindings_) {
          if (b.match(pkt)) {
            return std::make_unique<SandboxProgram>(*b.sandbox, pfe_);
          }
        }
        return pfe_.router().make_forwarding_program();
      });
}

}  // namespace afi
}  // namespace trio
