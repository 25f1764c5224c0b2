// Executes a CompiledProgram on a simulated PPE thread.
//
// Each begin/end block is one VLIW micro-instruction: executing it charges
// one instruction of engine time, and its external transactions become
// thread actions (posted XTXNs continue, synchronous XTXNs suspend the
// thread until the reply). Control transfers follow the paper's model —
// goto selects the next instruction, call/return nests up to eight levels,
// falling off the end of an instruction block falls through to the next
// one, and Exit()/Drop() destroy the thread.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "microcode/compiler.hpp"
#include "trio/program.hpp"

namespace microcode {

class MicrocodeThread : public trio::PpeProgram {
 public:
  explicit MicrocodeThread(std::shared_ptr<const CompiledProgram> program);

  trio::Action step(trio::ThreadContext& ctx) override;

  std::size_t pc() const { return pc_; }

 private:
  // Result of running one block to its control transfer.
  struct Control {
    enum class Kind {
      kFallthrough, kGoto, kCallXfer, kReturnXfer, kSync, kExit
    };
    Kind kind = Kind::kFallthrough;
    std::size_t target = 0;          // kGoto / kCallXfer
    trio::XtxnRequest sync_req;      // kSync
  };

  Control exec_block(trio::ThreadContext& ctx);
  Control exec_stmts(const std::vector<StmtPtr>& stmts, std::size_t from,
                     bool top_level, trio::ThreadContext& ctx);
  Control exec_stmt(const Stmt& s, bool top_level, trio::ThreadContext& ctx);

  std::uint64_t eval(const Expr& e, trio::ThreadContext& ctx);
  std::uint64_t load(const Location& loc, trio::ThreadContext& ctx) const;
  void store(const Location& loc, std::uint64_t v,
             trio::ThreadContext& ctx) const;
  void assign(const Expr& target, std::uint64_t v, trio::ThreadContext& ctx);
  using IntrinsicArgs = std::array<std::uint64_t, kMaxIntrinsicArgs>;
  std::span<const std::uint64_t> eval_args(const std::vector<ExprPtr>& exprs,
                                           IntrinsicArgs& out,
                                           trio::ThreadContext& ctx);
  trio::XtxnRequest build_request(const std::string& name,
                                  std::span<const std::uint64_t> args,
                                  int line, int col,
                                  trio::ThreadContext& ctx);
  std::uint64_t reply_value(const trio::XtxnReply& reply,
                            trio::ThreadContext& ctx) const;

  std::shared_ptr<const CompiledProgram> prog_;
  std::size_t pc_ = 0;
  std::size_t stmt_idx_ = 0;
  bool started_ = false;
  bool exited_ = false;

  // Synchronous-XTXN continuation: either an assignment target expression
  // or a local declaration awaiting the reply value.
  const Expr* pending_target_ = nullptr;
  const Stmt* pending_local_ = nullptr;
  std::string pending_intrinsic_;
  // SmsReadVec continuation: LMEM offset the reply payload lands at.
  std::size_t pending_vec_off_ = 0;

  // Posted XTXNs / emits produced by the current block, drained as
  // zero-instruction actions after the block's own instruction charge.
  trio::ActionQueue pending_;

  std::vector<std::pair<std::size_t, std::size_t>> call_stack_;

  // Operand-bus lanes for 'bus'-class variables (one instruction's
  // lifetime; the compiler enforces no cross-instruction reads).
  mutable std::vector<std::uint64_t> bus_;
};

/// Wraps a compiled program as a per-packet program factory for
/// trio::Pfe::set_program_factory.
trio::ProgramFactory make_program_factory(
    std::shared_ptr<const CompiledProgram> program);

}  // namespace microcode
