// A Packet Processing Engine (paper §2.2): a VLIW multi-threaded core.
//
// Timing model. Each thread has at most one datapath instruction in the
// PPE pipeline ("Trio does not dispatch an instruction on the same thread
// until the previous exits the pipeline"), so a thread sees
// `instr_latency` per instruction; across threads the PPE issues one
// instruction per clock, so the core saturates when
// active_threads * instr_latency cycles > 1 cycle/issue. Both limits are
// modelled analytically: a step of k instructions starts at
// max(now, issue_free), advances issue_free by k issue slots, and
// completes for the thread k * instr_latency later.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"
#include "trio/calibration.hpp"
#include "trio/program.hpp"

namespace trio {

class Pfe;

class Ppe {
 public:
  Ppe(sim::Simulator& simulator, const Calibration& cal, Pfe& pfe, int index);
  Ppe(const Ppe&) = delete;
  Ppe& operator=(const Ppe&) = delete;

  int free_threads() const { return static_cast<int>(free_slots_.size()); }
  int active_threads() const {
    return static_cast<int>(threads_.size() - free_slots_.size());
  }

  /// Starts a thread running `program`. For packet threads, the packet
  /// head is preloaded into LMEM and `ticket` orders the packet's outputs
  /// through the Reorder Engine. Returns false when no thread slot is
  /// free.
  bool spawn(ProgramPtr program, net::PacketPtr pkt,
             std::optional<std::uint64_t> ticket, std::uint32_t timer_index);

  std::uint64_t instructions_issued() const {
    return instructions_issued_.value();
  }
  std::uint64_t threads_started() const { return threads_started_.value(); }
  int index() const { return index_; }

  /// PFE-wide counters (`<prefix>instructions`, `<prefix>threads_started`
  /// — every PPE of a PFE shares the same cells) and, when tracing, one
  /// named row per thread slot carrying packet/timer lifetime spans and
  /// stall:<op> spans for synchronous XTXN waits. Called by the owning Pfe.
  void instrument(telemetry::Telemetry& telem, int pid,
                  std::string_view prefix);

 private:
  struct Thread {
    ThreadContext ctx;
    ProgramPtr program;
    std::optional<std::uint64_t> ticket;
    sim::Time async_done_at;
    // Sync-XTXN request parked between the action and its issue time, so
    // the scheduled closure stays within the inline-callback budget.
    XtxnRequest pending_sync_req;
    bool active = false;
  };

  void advance(int slot);
  void perform(int slot, Action& action, sim::Time done);
  /// Issues the parked sync XTXN: the block writes its reply into the
  /// thread's ctx.reply, and the thread wakes at the reply time.
  void issue_pending_sync(int slot);
  void finish(int slot);

  /// Trace row id of a thread slot: rows of all PPEs in a PFE interleave
  /// into one contiguous block, ordered (ppe, slot).
  int tid_of(int slot) const { return index_ * cal_.threads_per_ppe + slot; }

  sim::Simulator& sim_;
  const Calibration& cal_;
  Pfe& pfe_;
  int index_;
  std::vector<Thread> threads_;
  std::vector<int> free_slots_;
  // Reply of posted XTXNs, which nothing reads: a posted op leaves the
  // thread's ctx.reply as the last sync reply left it.
  XtxnReply posted_reply_;
  sim::Time issue_free_;
  telemetry::Counter instructions_issued_;
  telemetry::Counter threads_started_;
  telemetry::Tracer* tracer_ = nullptr;
  int trace_pid_ = 0;
};

}  // namespace trio
