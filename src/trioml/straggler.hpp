// In-network straggler detection and mitigation (paper §5).
//
// Each timer thread scans its 1/N partition of the aggregation hash
// table with a check-and-clear pass over the per-record 'Recently
// Referenced' flags. A block whose flag was already clear has not been
// touched for at least one timer period — its straggling sources are
// given up on: the thread claims the record (hash delete), reads the
// partial aggregation state, and emits a *degraded* Result packet
// carrying age_op, degraded=1 and src_cnt = the number of sources that
// did contribute, so the servers can rescale (§5 "Straggler mitigation").
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "trio/program.hpp"
#include "trioml/app.hpp"
#include "trioml/records.hpp"
#include "trioml/result_builder.hpp"

namespace trioml {

class StragglerScanProgram : public trio::PpeProgram {
 public:
  StragglerScanProgram(TrioMlApp& app, std::uint32_t partition,
                       std::uint32_t partitions)
      : app_(app), partition_(partition), partitions_(partitions) {}

  trio::Action step(trio::ThreadContext& ctx) override;

 private:
  enum class State {
    kScan,        // issue the partition scan
    kNextAged,    // take the next aged key (or exit)
    kClaim,       // hash-delete reply: do we own the block?
    kReadRecord,  // read the block slab
    kReadJob,     // read the job record
    kResult,      // run the shared result builder (degraded)
    kExit,
  };

  trio::Action do_step(trio::ThreadContext& ctx);

  TrioMlApp& app_;
  std::uint32_t partition_;
  std::uint32_t partitions_;
  State state_ = State::kScan;
  std::vector<std::uint64_t> aged_;
  std::size_t next_ = 0;
  std::uint64_t key_ = 0;
  std::uint64_t record_addr_ = 0;
  BlockRecord record_;
  std::uint8_t accum_src_cnt_ = 0;
  std::optional<ResultBuilder> builder_;
  trio::ActionQueue pending_;  // posted charges (§5 profiling)
};

}  // namespace trioml
