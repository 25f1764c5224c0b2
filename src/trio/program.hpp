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
// Program objects and their action queues live in the thread-local
// recycler (sim/recycler.hpp): when a thread ends, its program's storage
// goes back to the recycler for the next program of that size, so
// steady-state dispatch does not touch the allocator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <variant>
#include <vector>

#include "net/buffer.hpp"
#include "net/packet.hpp"
#include "sim/recycler.hpp"
#include "sim/ring_queue.hpp"
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

/// A program's queue of actions to return ahead of its next state-machine
/// step. The first block holds four actions, and every ring it grows to
/// (up to 512 actions, 64 KiB) lives in the recycler: a warm queue costs
/// no allocation, even a straggler scan's 65 actions for 64 sources.
using ActionQueue = sim::RingQueue<Action>;

class PpeProgram {
 public:
  virtual ~PpeProgram() = default;
  /// Advances the state machine by one action. Called by the engine after
  /// the previous action's time has been charged (and, for SyncXtxn, after
  /// the reply landed in ctx.reply).
  virtual Action step(ThreadContext& ctx) = 0;

  // Every program, however made (std::make_unique included), lives in
  // the recycler. The virtual destructor passes the most-derived size.
  static void* operator new(std::size_t bytes) {
    return sim::recycle_alloc(bytes);
  }
  static void operator delete(void* block, std::size_t bytes) noexcept {
    sim::recycle_free(block, bytes);
  }
  static void* operator new(std::size_t, std::align_val_t) = delete;
};

/// Owning handle to a program.
using ProgramPtr = std::unique_ptr<PpeProgram>;

/// Factory chosen by the application: given an arriving packet (head
/// already parsed into LMEM), produce the program that will process it
/// (std::make_unique). Returning nullptr drops the packet at dispatch.
using ProgramFactory = std::function<ProgramPtr(const net::Packet&)>;

}  // namespace trio
