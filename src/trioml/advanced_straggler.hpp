// Advanced straggler mitigation (paper §5, "Advanced straggler
// mitigation"): two timer-thread types cooperate —
//
//   * the frequent type (StragglerScanProgram) detects straggler events
//     and, when profiling is enabled, charges each missing source's
//     per-source event counter in shared memory;
//   * the infrequent type (StragglerClassifierProgram, this file) reads
//     the per-source event counters, tracks how many consecutive
//     classification windows each source has been straggling, classifies
//     it as a *temporary* straggler (slowed down recently) or a
//     *permanent* one (straggling for many consecutive windows), and
//     notifies all workers with an in-band notification packet.
//
// Notification packets reuse the Trio-ML header with age_op = 0xE
// (temporary) or 0xF (permanent), src_id = the straggling source, and
// src_cnt = the number of consecutive straggling windows. Workers record
// them (TrioMlWorker::straggler_notices()).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "trio/program.hpp"
#include "trioml/app.hpp"
#include "trioml/records.hpp"

namespace trioml {

/// age_op markers distinguishing notifications from aggregation traffic.
constexpr std::uint8_t kAgeOpTemporaryStraggler = 0xE;
constexpr std::uint8_t kAgeOpPermanentStraggler = 0xF;

struct ClassifierConfig {
  /// Consecutive straggling windows after which a source is declared
  /// permanent.
  int permanent_after_windows = 3;
};

class StragglerClassifierProgram : public trio::PpeProgram {
 public:
  StragglerClassifierProgram(TrioMlApp& app, std::uint8_t job_id,
                             ClassifierConfig config)
      : app_(app), job_id_(job_id), config_(config) {}

  trio::Action step(trio::ThreadContext& ctx) override;

 private:
  enum class State {
    kReadJob,      // fetch the job record (source mask, nexthop)
    kJobLoaded,
    kReadEvents,   // per source: read its event counter
    kReadState,    // per source: read classifier state (last count, consec)
    kDecide,       // update state, maybe emit a notification
    kExit,
  };

  trio::Action do_step(trio::ThreadContext& ctx);
  trio::Action next_source(trio::ThreadContext& ctx);

  TrioMlApp& app_;
  std::uint8_t job_id_;
  ClassifierConfig config_;
  State state_ = State::kReadJob;
  JobRecord job_;
  std::vector<std::uint8_t> sources_;
  std::size_t next_ = 0;
  std::uint8_t src_ = 0;
  std::uint64_t events_now_ = 0;
  trio::ActionQueue pending_;
};

}  // namespace trioml
