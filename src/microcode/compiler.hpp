// The Trio Compiler (TC) analogue (paper §3.1).
//
// Like TC, this stage has characteristics of both a compiler and an
// assembler: it translates C-style expressions, maps every variable to its
// underlying storage (thread registers, thread local memory, or virtual
// constants), and — because the programmer delineates instructions with
// begin/end — *fails compilation* when a block needs more reads, writes,
// or ALU operations than a single VLIW micro-instruction provides
// ("Typically, a single Microcode instruction can perform four registers
// or two local memory reads, and two registers or two local memory
// writes").
//
// There is no separate linking phase: compile() takes the complete source
// and produces a self-contained binary image (CompiledProgram) that the
// interpreter executes on a PPE thread.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "microcode/ast.hpp"

namespace microcode {

/// Hardware resource budget of one micro-instruction.
struct InstructionLimits {
  int max_reg_reads = 4;
  int max_lmem_reads = 2;
  int max_writes = 2;
  int max_alu_ops = 8;
  int max_xtxns = 2;
};

/// Where a variable lives after storage mapping.
struct Location {
  enum class Kind { kReg, kLmem, kConst, kBuiltin, kBus };
  Kind kind{};
  int reg = -1;                 // kReg
  std::size_t lmem_offset = 0;  // kLmem (bytes)
  std::size_t size_bytes = 8;   // kLmem extent
  std::uint64_t const_value = 0;  // kConst
  const StructDef* type = nullptr;  // struct type (if any)
  bool is_pointer = false;
  bool is_array = false;          // LMEM array of 64-bit elements
  std::size_t array_len = 0;
  int bus_slot = -1;              // kBus: operand-bus lane index
};

/// What kind of engine interaction an intrinsic performs.
enum class IntrinsicKind {
  kPosted,  // fire-and-forget XTXN (CounterIncPhys, SmsWrite64)
  kSync,    // suspends the thread for the reply (SmsRead64, ...)
  kAction,  // packet action (Forward, Drop, Exit)
};

struct IntrinsicInfo {
  IntrinsicKind kind;
  int arity;
};

/// The most arguments any intrinsic takes (the vector forms' addr,
/// lmem_off, len_bytes); calls whose count differs from their
/// intrinsic's arity do not compile.
inline constexpr std::size_t kMaxIntrinsicArgs = 3;

/// Looks up a known intrinsic; nullptr when unknown.
const IntrinsicInfo* intrinsic_info(const std::string& name);

/// Per-block resource usage, reported for introspection and enforced
/// against InstructionLimits.
struct BlockResources {
  int reg_reads = 0;
  int lmem_reads = 0;
  int writes = 0;
  int alu_ops = 0;
  int xtxns = 0;
};

struct CompiledProgram {
  Module module;  // owns the AST the interpreter walks
  std::unordered_map<std::string, const StructDef*> structs;
  std::unordered_map<std::string, Location> vars;
  std::unordered_map<std::string, std::size_t> labels;  // block label -> idx
  std::vector<BlockResources> resources;  // parallel to module.blocks
  /// Register/LMEM initial values applied when a thread starts
  /// (compile-time-constant global initializers).
  std::vector<std::pair<std::string, std::uint64_t>> initial_values;
  /// First LMEM byte available to variables (after the packet-head area —
  /// the binary "defines required symbols, such as the address in local
  /// memory where the packet header starts").
  std::size_t lmem_vars_base = 0;
  std::size_t lmem_used = 0;
  /// Operand-bus lanes used by 'bus'-class variables (§3.1): values that
  /// feed the ALUs directly and do not persist across instructions.
  int bus_slots = 0;

  std::size_t instruction_count() const { return module.blocks.size(); }
  const Location& location(const std::string& name) const;
};

/// Compiles complete Microcode source. Throws CompileError on any error.
std::shared_ptr<const CompiledProgram> compile(
    const std::string& source, const InstructionLimits& limits = {},
    std::size_t lmem_bytes = 1280, std::size_t head_bytes = 192,
    int gpr_count = 32);

}  // namespace microcode
