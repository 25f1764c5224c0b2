// Timer threads (paper §5): tens of high-resolution hardware timers that
// launch Microcode threads periodically. Starting N timers with period P
// at phase offsets i*P/N gives back-to-back thread launches every P/N —
// the paper's trick for scanning 1/N of a large hash table per thread.
//
// Multiple independent timer *groups* can run concurrently — §5's
// advanced mitigation uses a frequent group for straggler detection and
// an infrequent group for temporary/permanent classification.
//
// No PPE is reserved: each firing spawns on whichever PPE has a free
// thread (queued briefly when none has; counted as skipped only if even
// the internal launch queue is full).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "trio/calibration.hpp"
#include "trio/program.hpp"

namespace trio {

class Pfe;

class TimerWheel {
 public:
  /// Builds the program run when timer `timer_index` of a group fires.
  using TimerProgramFactory =
      std::function<ProgramPtr(std::uint32_t timer_index)>;

  TimerWheel(sim::Simulator& simulator, const Calibration& cal, Pfe& pfe);

  /// Starts a group of `count` periodic timers with period `period`,
  /// phase-shifted by period/count. Returns the group id. Other groups
  /// keep running.
  int start(int count, sim::Duration period, TimerProgramFactory factory);

  /// Stops one timer group / every group.
  void stop_group(int group);
  void stop();

  bool running() const;
  int count() const;               // timers across all running groups
  sim::Duration period() const;    // period of the first running group
  std::uint64_t fires() const { return fires_; }
  std::uint64_t skips() const { return skips_; }

 private:
  struct Group {
    bool running = false;
    int count = 0;
    sim::Duration period;
    TimerProgramFactory factory;
  };

  void fire(int group, std::uint32_t timer_index);

  sim::Simulator& sim_;
  const Calibration& cal_;
  Pfe& pfe_;
  std::vector<Group> groups_;
  std::uint64_t fires_ = 0;
  std::uint64_t skips_ = 0;
};

}  // namespace trio
