// The programming model for PPE threads.
//
// A PpeProgram is the software that runs on one Trio thread: a
// run-to-completion state machine whose step() returns the next *action*
// — "execute k datapath instructions, then …". The PPE engine charges the
// instruction time (per-thread latency and per-PPE issue bandwidth) and
// performs the action:
//
//   Continue     keep executing; step() is called again
//   SyncXtxn     suspend the thread until the XTXN reply arrives (reply
//                visible in ThreadContext::reply) — paper §3.1
//   AsyncXtxn    issue and keep running (posted ops only)
//   JoinAsync    wait until every outstanding AsyncXtxn has completed
//   EmitPacket   hand a packet to forwarding via a nexthop
//   Exit         destroy the thread (hardware-managed, §2.2)
//
// Microcode programs compiled by src/microcode run through an adapter that
// implements this same interface, so interpreted and native programs share
// the engine.
//
// Program objects come from their PFE's ProgramPool: when a thread ends,
// its program's storage goes back to the pool for the next program of
// that size, so steady-state dispatch does not touch the allocator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "net/buffer.hpp"
#include "net/packet.hpp"
#include "sim/time.hpp"
#include "trio/xtxn.hpp"

namespace trio {

/// Per-thread state: the paper's per-thread local storage (§2.2) plus the
/// engine's bookkeeping that programs may read.
struct ThreadContext {
  net::Buffer lmem;                  // 1.25 KB local memory (head preloaded)
  std::vector<std::uint64_t> regs;   // 32 x 64-bit GPRs
  net::PacketPtr packet;             // null for timer/internal threads
  XtxnReply reply;                   // most recent sync-XTXN reply
  std::uint32_t timer_index = 0;     // which timer fired (timer threads)
  std::uint64_t instructions_executed = 0;
  sim::Time spawn_time;
  int ppe_index = -1;
  int thread_slot = -1;
};

struct ActContinue {
  std::uint32_t instructions = 1;
};

struct ActSyncXtxn {
  XtxnRequest req;
  std::uint32_t instructions = 1;
};

struct ActAsyncXtxn {
  XtxnRequest req;  // must satisfy xtxn_is_posted()
  std::uint32_t instructions = 1;
};

struct ActJoinAsync {
  std::uint32_t instructions = 1;
};

struct ActEmitPacket {
  net::PacketPtr pkt;
  std::uint32_t nexthop_id = 0;
  std::uint32_t instructions = 1;
};

struct ActExit {
  std::uint32_t instructions = 1;
};

using Action = std::variant<ActContinue, ActSyncXtxn, ActAsyncXtxn,
                            ActJoinAsync, ActEmitPacket, ActExit>;

inline std::uint32_t action_instructions(const Action& a) {
  return std::visit([](const auto& x) { return x.instructions; }, a);
}

class PpeProgram {
 public:
  virtual ~PpeProgram() = default;
  /// Advances the state machine by one action. Called by the engine after
  /// the previous action's time has been charged (and, for SyncXtxn, after
  /// the reply landed in ctx.reply).
  virtual Action step(ThreadContext& ctx) = 0;
};

class ProgramPool;

/// Destroys a program and returns its storage to the pool it came from;
/// a program made with plain `new` (std::make_unique) is deleted.
struct ProgramDeleter {
  ProgramDeleter() = default;
  ProgramDeleter(ProgramPool* p, std::size_t cls) : pool(p), size_class(cls) {}
  template <typename U>
  ProgramDeleter(std::default_delete<U>) {}  // NOLINT(google-explicit-constructor)
  void operator()(PpeProgram* program) const;

  ProgramPool* pool = nullptr;
  std::size_t size_class = 0;
};

/// Owning handle to a program. A std::unique_ptr to a program converts to
/// it, so factories may still return std::make_unique results.
using ProgramPtr = std::unique_ptr<PpeProgram, ProgramDeleter>;

/// Recycles the program objects of one PFE. Storage is kept per size class
/// (kClassBytes steps) on free lists that grow with the number of live
/// programs and are freed with the pool. Each PFE owns its own pool —
/// PFEs of different domains run on different shard threads — and
/// every program made from it must be destroyed before it.
class ProgramPool {
 public:
  ProgramPool() = default;
  ProgramPool(const ProgramPool&) = delete;
  ProgramPool& operator=(const ProgramPool&) = delete;
  ~ProgramPool() {
    for (auto& blocks : free_) {
      for (void* block : blocks) ::operator delete(block);
    }
  }

  /// Constructs a P(args...) in recycled storage.
  template <typename P, typename... Args>
  ProgramPtr make(Args&&... args) {
    static_assert(std::is_base_of_v<PpeProgram, P>);
    static_assert(alignof(P) <= alignof(std::max_align_t));
    constexpr std::size_t cls = (sizeof(P) + kClassBytes - 1) / kClassBytes;
    void* block = acquire(cls);
    try {
      return ProgramPtr(::new (block) P(std::forward<Args>(args)...),
                        ProgramDeleter(this, cls));
    } catch (...) {
      release(block, cls);
      throw;
    }
  }

 private:
  friend struct ProgramDeleter;
  static constexpr std::size_t kClassBytes = 64;

  void* acquire(std::size_t cls) {
    if (cls < free_.size() && !free_[cls].empty()) {
      void* block = free_[cls].back();
      free_[cls].pop_back();
      return block;
    }
    return ::operator new(cls * kClassBytes);
  }
  void release(void* block, std::size_t cls) {
    if (cls >= free_.size()) free_.resize(cls + 1);
    free_[cls].push_back(block);
  }

  std::vector<std::vector<void*>> free_;  // by size class
};

inline void ProgramDeleter::operator()(PpeProgram* program) const {
  if (pool == nullptr) {
    delete program;
    return;
  }
  // The most-derived object starts the block the pool handed out.
  void* block = dynamic_cast<void*>(program);
  program->~PpeProgram();
  pool->release(block, size_class);
}

/// Factory chosen by the application: given an arriving packet (head
/// already parsed into LMEM), produce the program that will process it,
/// normally from the PFE's pool (Pfe::programs()). Returning nullptr drops
/// the packet at dispatch.
using ProgramFactory = std::function<ProgramPtr(const net::Packet&)>;

}  // namespace trio
