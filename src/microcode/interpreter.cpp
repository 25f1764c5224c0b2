#include "microcode/interpreter.hpp"

#include <stdexcept>

#include "microcode/bitfield.hpp"

namespace microcode {

namespace {

/// Runtime faults are programming errors in the Microcode program; the
/// simulated hardware traps loudly instead of corrupting state.
[[noreturn]] void trap(const std::string& msg, int line, int col) {
  throw std::runtime_error("microcode runtime trap at " +
                           std::to_string(line) + ":" + std::to_string(col) +
                           ": " + msg);
}

}  // namespace

MicrocodeThread::MicrocodeThread(
    std::shared_ptr<const CompiledProgram> program)
    : prog_(std::move(program)) {
  bus_.assign(static_cast<std::size_t>(prog_->bus_slots), 0);
}

std::uint64_t MicrocodeThread::load(const Location& loc,
                                    trio::ThreadContext& ctx) const {
  switch (loc.kind) {
    case Location::Kind::kReg:
      return ctx.regs[static_cast<std::size_t>(loc.reg)];
    case Location::Kind::kLmem:
      return ctx.lmem.u64(loc.lmem_offset);
    case Location::Kind::kConst:
      return loc.const_value;
    case Location::Kind::kBuiltin:
      return ctx.packet ? ctx.packet->size() : 0;  // r_work.pkt_len
    case Location::Kind::kBus:
      return bus_[static_cast<std::size_t>(loc.bus_slot)];
  }
  return 0;
}

void MicrocodeThread::store(const Location& loc, std::uint64_t v,
                            trio::ThreadContext& ctx) const {
  switch (loc.kind) {
    case Location::Kind::kReg:
      ctx.regs[static_cast<std::size_t>(loc.reg)] = v;
      return;
    case Location::Kind::kLmem:
      ctx.lmem.set_u64(loc.lmem_offset, v);
      return;
    case Location::Kind::kBus:
      bus_[static_cast<std::size_t>(loc.bus_slot)] = v;
      return;
    default:
      throw std::logic_error("store to non-writable location");
  }
}

std::uint64_t MicrocodeThread::eval(const Expr& e, trio::ThreadContext& ctx) {
  switch (e.kind) {
    case Expr::Kind::kNumber:
      return e.number;
    case Expr::Kind::kSizeof:
      return prog_->structs.at(e.name)->size_bytes();
    case Expr::Kind::kVar:
      return load(prog_->location(e.name), ctx);
    case Expr::Kind::kField: {
      if (!e.arrow) {
        auto dotted = prog_->vars.find(e.name + "." + e.field);
        if (dotted != prog_->vars.end()) return load(dotted->second, ctx);
      }
      const Location& base = prog_->location(e.name);
      const StructField* f = base.type->find_field(e.field);
      const std::size_t base_bytes =
          e.arrow ? load(base, ctx) : base.lmem_offset;
      return read_bits(ctx.lmem, base_bytes * 8 + f->bit_offset, f->width);
    }
    case Expr::Kind::kUnary: {
      const std::uint64_t v = eval(*e.lhs, ctx);
      switch (e.un) {
        case UnOp::kNeg: return ~v + 1;
        case UnOp::kLNot: return v == 0 ? 1 : 0;
        case UnOp::kBitNot: return ~v;
      }
      return 0;
    }
    case Expr::Kind::kBinary: {
      // Short-circuit forms first.
      if (e.bin == BinOp::kLAnd) {
        return eval(*e.lhs, ctx) != 0 && eval(*e.rhs, ctx) != 0 ? 1 : 0;
      }
      if (e.bin == BinOp::kLOr) {
        return eval(*e.lhs, ctx) != 0 || eval(*e.rhs, ctx) != 0 ? 1 : 0;
      }
      const std::uint64_t a = eval(*e.lhs, ctx);
      const std::uint64_t b = eval(*e.rhs, ctx);
      switch (e.bin) {
        case BinOp::kAdd: return a + b;
        case BinOp::kSub: return a - b;
        case BinOp::kMul: return a * b;
        case BinOp::kDiv:
          if (b == 0) trap("division by zero", e.line, e.col);
          return a / b;
        case BinOp::kMod:
          if (b == 0) trap("modulo by zero", e.line, e.col);
          return a % b;
        case BinOp::kAnd: return a & b;
        case BinOp::kOr: return a | b;
        case BinOp::kXor: return a ^ b;
        case BinOp::kShl: return b >= 64 ? 0 : a << b;
        case BinOp::kShr: return b >= 64 ? 0 : a >> b;
        case BinOp::kEq: return a == b;
        case BinOp::kNe: return a != b;
        case BinOp::kLt: return a < b;
        case BinOp::kLe: return a <= b;
        case BinOp::kGt: return a > b;
        case BinOp::kGe: return a >= b;
        default: return 0;
      }
    }
    case Expr::Kind::kIndex: {
      const Location& base = prog_->location(e.name);
      const std::uint64_t idx = eval(*e.lhs, ctx);
      if (idx >= base.array_len) {
        trap("array index " + std::to_string(idx) + " out of bounds (len " +
                 std::to_string(base.array_len) + ")",
             e.line, e.col);
      }
      return ctx.lmem.u64(base.lmem_offset + idx * 8);
    }
    case Expr::Kind::kIntrinsic:
      throw std::logic_error(
          "sync intrinsic evaluated outside assignment (compiler bug)");
  }
  return 0;
}

void MicrocodeThread::assign(const Expr& target, std::uint64_t v,
                             trio::ThreadContext& ctx) {
  if (target.kind == Expr::Kind::kVar) {
    store(prog_->location(target.name), v, ctx);
    return;
  }
  if (target.kind == Expr::Kind::kIndex) {
    const Location& base = prog_->location(target.name);
    const std::uint64_t idx = eval(*target.lhs, ctx);
    if (idx >= base.array_len) {
      trap("array index " + std::to_string(idx) + " out of bounds (len " +
               std::to_string(base.array_len) + ")",
           target.line, target.col);
    }
    ctx.lmem.set_u64(base.lmem_offset + idx * 8, v);
    return;
  }
  const Location& base = prog_->location(target.name);
  const StructField* f = base.type->find_field(target.field);
  const std::size_t base_bytes =
      target.arrow ? load(base, ctx) : base.lmem_offset;
  write_bits(ctx.lmem, base_bytes * 8 + f->bit_offset, f->width, v);
}

std::span<const std::uint64_t> MicrocodeThread::eval_args(
    const std::vector<ExprPtr>& exprs, IntrinsicArgs& out,
    trio::ThreadContext& ctx) {
  // The compiler matched the count to the intrinsic's arity.
  for (std::size_t i = 0; i < exprs.size(); ++i) out[i] = eval(*exprs[i], ctx);
  return {out.data(), exprs.size()};
}

trio::XtxnRequest MicrocodeThread::build_request(
    const std::string& name, std::span<const std::uint64_t> args, int line,
    int col, trio::ThreadContext& ctx) {
  // (addr, lmem_off, len_bytes) vector forms: the payload is read out of
  // the thread's LMEM at issue time, like the hardware's operand fetch.
  const auto lmem_payload = [&](trio::XtxnRequest& r) {
    const std::uint64_t off = args[1];
    const std::uint64_t len = args[2];
    if (off + len > ctx.lmem.size()) {
      trap("vector intrinsic LMEM range [" + std::to_string(off) + ", " +
               std::to_string(off + len) + ") exceeds LMEM size " +
               std::to_string(ctx.lmem.size()),
           line, col);
    }
    r.addr = args[0];
    r.data.assign(ctx.lmem.view(off, len));
  };
  trio::XtxnRequest req;
  if (name == "CounterIncPhys") {
    // Counter addresses are in 8-byte words (Fig 6: adjacent 16-byte
    // counters are 2 words apart).
    req.op = trio::XtxnOp::kCounterInc;
    req.addr = args[0] * 8;
    req.arg0 = args[1];
  } else if (name == "SmsWrite64") {
    req.op = trio::XtxnOp::kWrite;
    req.addr = args[0];
    req.data.resize(8);
    for (int i = 0; i < 8; ++i) {
      req.data[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(args[1] >> (8 * i));
    }
  } else if (name == "SmsRead64") {
    req.op = trio::XtxnOp::kRead;
    req.addr = args[0];
    req.len = 8;
  } else if (name == "FetchAdd32") {
    req.op = trio::XtxnOp::kFetchAdd32;
    req.addr = args[0];
    req.arg0 = args[1];
  } else if (name == "FetchOr64") {
    req.op = trio::XtxnOp::kFetchOr64;
    req.addr = args[0];
    req.arg0 = args[1];
  } else if (name == "FetchSwap64") {
    req.op = trio::XtxnOp::kFetchSwap64;
    req.addr = args[0];
    req.arg0 = args[1];
  } else if (name == "HashLookup") {
    req.op = trio::XtxnOp::kHashLookup;
    req.arg0 = args[0];
  } else if (name == "HashInsert") {
    req.op = trio::XtxnOp::kHashInsert;
    req.arg0 = args[0];
    req.arg1 = args[1];
  } else if (name == "HashDelete") {
    req.op = trio::XtxnOp::kHashDelete;
    req.arg0 = args[0];
  } else if (name == "SmsReadVec") {
    req.op = trio::XtxnOp::kRead;
    req.addr = args[0];
    req.len = static_cast<std::uint32_t>(args[2]);
    if (args[1] + args[2] > ctx.lmem.size()) {
      trap("SmsReadVec LMEM range exceeds LMEM size", line, col);
    }
    pending_vec_off_ = static_cast<std::size_t>(args[1]);
  } else if (name == "SmsWriteVec") {
    req.op = trio::XtxnOp::kWrite;
    lmem_payload(req);
  } else if (name == "SmsFill32") {
    // (addr, word32, len_bytes): write `word32` repeated — the datapath's
    // buffer-reset primitive (0 for sum/majority, ~0 for min presets).
    req.op = trio::XtxnOp::kWrite;
    req.addr = args[0];
    req.data.resize(args[2]);
    for (std::size_t i = 0; i < req.data.size(); ++i) {
      req.data[i] = static_cast<std::uint8_t>(args[1] >> (8 * (i % 4)));
    }
  } else if (name == "AddVec32") {
    req.op = trio::XtxnOp::kAddVec32;
    lmem_payload(req);
  } else if (name == "MinVec32") {
    req.op = trio::XtxnOp::kMinVec32;
    lmem_payload(req);
  } else if (name == "VoteVec32") {
    req.op = trio::XtxnOp::kVoteVec32;
    lmem_payload(req);
  } else if (name == "PolicerCheck") {
    req.op = trio::XtxnOp::kPolicerCheck;
    req.addr = args[0];
    req.arg0 = args[1];
  } else {
    trap("unknown XTXN intrinsic '" + name + "'", line, col);
  }
  return req;
}

std::uint64_t MicrocodeThread::reply_value(
    const trio::XtxnReply& reply, trio::ThreadContext& ctx) const {
  if (pending_intrinsic_ == "SmsRead64") {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
      v = v << 8 |
          (static_cast<std::size_t>(i) < reply.data.size()
               ? reply.data[static_cast<std::size_t>(i)]
               : 0);
    }
    return v;
  }
  if (pending_intrinsic_ == "SmsReadVec") {
    // Land the payload in LMEM at the offset captured at issue time; the
    // assignment target receives the byte count moved.
    ctx.lmem.write(pending_vec_off_, reply.data);
    return reply.data.size();
  }
  if (pending_intrinsic_ == "HashInsert" ||
      pending_intrinsic_ == "HashDelete") {
    return reply.ok ? 1 : 0;
  }
  return reply.value;
}

MicrocodeThread::Control MicrocodeThread::exec_stmt(
    const Stmt& s, bool top_level, trio::ThreadContext& ctx) {
  switch (s.kind) {
    case Stmt::Kind::kAssign:
    case Stmt::Kind::kLocalDecl: {
      const Expr* value = s.value.get();
      if (value->kind == Expr::Kind::kIntrinsic) {
        // Synchronous XTXN: suspend; the assignment completes on resume.
        IntrinsicArgs storage{};
        Control c;
        c.kind = Control::Kind::kSync;
        c.sync_req = build_request(value->name,
                                   eval_args(value->args, storage, ctx),
                                   value->line, value->col, ctx);
        pending_intrinsic_ = value->name;
        if (s.kind == Stmt::Kind::kAssign) {
          pending_target_ = s.target.get();
        } else {
          pending_local_ = &s;
        }
        return c;
      }
      const std::uint64_t v = eval(*value, ctx);
      if (s.kind == Stmt::Kind::kAssign) {
        assign(*s.target, v, ctx);
      } else {
        store(prog_->location(s.name), v, ctx);
      }
      return {};
    }
    case Stmt::Kind::kIf: {
      const auto& body =
          eval(*s.cond, ctx) != 0 ? s.then_body : s.else_body;
      return exec_stmts(body, 0, false, ctx);
    }
    case Stmt::Kind::kSwitch: {
      const std::uint64_t v = eval(*s.cond, ctx);
      for (const auto& arm : s.cases) {
        if (arm.value == v) return exec_stmts(arm.body, 0, false, ctx);
      }
      return exec_stmts(s.default_body, 0, false, ctx);
    }
    case Stmt::Kind::kGoto: {
      Control c;
      c.kind = Control::Kind::kGoto;
      c.target = prog_->labels.at(s.label);
      return c;
    }
    case Stmt::Kind::kCall: {
      if (call_stack_.size() >= 8) {
        trap("call depth exceeds 8 (hardware limit)", s.line, s.col);
      }
      Control c;
      c.kind = Control::Kind::kCallXfer;
      c.target = prog_->labels.at(s.label);
      return c;
    }
    case Stmt::Kind::kReturn: {
      if (call_stack_.empty()) {
        trap("return without call", s.line, s.col);
      }
      Control c;
      c.kind = Control::Kind::kReturnXfer;
      return c;
    }
    case Stmt::Kind::kIntrinsic: {
      if (s.name == "Exit" || s.name == "Drop") {
        Control c;
        c.kind = Control::Kind::kExit;
        return c;
      }
      IntrinsicArgs storage{};
      const auto args = eval_args(s.args, storage, ctx);
      if (s.name == "Forward") {
        // Unload the modified head from LMEM back into the frame (§2.2)
        // and hand the packet to forwarding.
        if (!ctx.packet) trap("Forward() on a packet-less thread", s.line, s.col);
        const std::size_t head = ctx.packet->head_size();
        ctx.packet->frame().write(0, ctx.lmem.view(0, head));
        trio::ActEmitPacket emit;
        emit.pkt = ctx.packet;
        emit.nexthop_id = static_cast<std::uint32_t>(args[0]);
        emit.instructions = 0;
        pending_.push_back(std::move(emit));
        return {};
      }
      trio::ActAsyncXtxn ax;
      ax.req = build_request(s.name, args, s.line, s.col, ctx);
      ax.instructions = 0;
      pending_.push_back(std::move(ax));
      return {};
    }
  }
  (void)top_level;
  return {};
}

MicrocodeThread::Control MicrocodeThread::exec_stmts(
    const std::vector<StmtPtr>& stmts, std::size_t from, bool top_level,
    trio::ThreadContext& ctx) {
  for (std::size_t i = from; i < stmts.size(); ++i) {
    if (top_level) stmt_idx_ = i;
    Control c = exec_stmt(*stmts[i], top_level, ctx);
    if (c.kind != Control::Kind::kFallthrough) return c;
  }
  return {};
}

MicrocodeThread::Control MicrocodeThread::exec_block(
    trio::ThreadContext& ctx) {
  const auto& block = prog_->module.blocks[pc_];
  return exec_stmts(block.stmts, stmt_idx_, true, ctx);
}

trio::Action MicrocodeThread::step(trio::ThreadContext& ctx) {
  if (!pending_.empty()) return pending_.pop_front();
  if (exited_) return trio::ActExit{0};
  if (!started_) {
    started_ = true;
    for (const auto& [name, value] : prog_->initial_values) {
      store(prog_->location(name), value, ctx);
    }
  }
  if (pending_target_ != nullptr || pending_local_ != nullptr) {
    const std::uint64_t v = reply_value(ctx.reply, ctx);
    if (pending_target_ != nullptr) {
      assign(*pending_target_, v, ctx);
      pending_target_ = nullptr;
    } else {
      store(prog_->location(pending_local_->name), v, ctx);
      pending_local_ = nullptr;
    }
    ++stmt_idx_;  // the assignment's statement is complete
  }

  Control c = exec_block(ctx);

  // Translate the block's control transfer into the primary action; any
  // posted XTXNs / emits collected in pending_ follow as zero-instruction
  // actions (they belong to this same micro-instruction).
  trio::Action primary;
  switch (c.kind) {
    case Control::Kind::kFallthrough:
      ++pc_;
      stmt_idx_ = 0;
      if (pc_ >= prog_->module.blocks.size()) {
        exited_ = true;
        primary = trio::ActExit{1};
      } else {
        primary = trio::ActContinue{1};
      }
      break;
    case Control::Kind::kGoto:
      pc_ = c.target;
      stmt_idx_ = 0;
      primary = trio::ActContinue{1};
      break;
    case Control::Kind::kCallXfer:
      call_stack_.emplace_back(pc_, stmt_idx_ + 1);
      pc_ = c.target;
      stmt_idx_ = 0;
      primary = trio::ActContinue{1};
      break;
    case Control::Kind::kReturnXfer: {
      auto [rp, ri] = call_stack_.back();
      call_stack_.pop_back();
      pc_ = rp;
      stmt_idx_ = ri;
      primary = trio::ActContinue{1};
      break;
    }
    case Control::Kind::kSync: {
      trio::ActSyncXtxn sx;
      sx.req = std::move(c.sync_req);
      sx.instructions = 1;
      primary = std::move(sx);
      break;
    }
    case Control::Kind::kExit:
      exited_ = true;
      primary = trio::ActExit{1};
      break;
  }

  if (!pending_.empty()) {
    // Emit/posted actions first (they happen inside the instruction),
    // then the control action. Charge the single instruction on the first
    // action returned; the rest carry none.
    std::visit([](auto& a) { a.instructions = 0; }, primary);
    pending_.push_back(std::move(primary));
    trio::Action first = pending_.pop_front();
    std::visit([](auto& a) { a.instructions = 1; }, first);
    return first;
  }
  return primary;
}

trio::ProgramFactory make_program_factory(
    std::shared_ptr<const CompiledProgram> program) {
  return [program](const net::Packet&) -> trio::ProgramPtr {
    return std::make_unique<MicrocodeThread>(program);
  };
}

}  // namespace microcode
