// The benchmark's workloads (see perfbench/README.md for why each exists):
//
//   agg_large   8x8 cluster allreduce, 1024 gradients per packet, serial
//               engine — per-gradient work (PPE, SMS AddVec32, MQSS tails)
//   agg_small   the same gradient bytes at 64 gradients per packet — per-
//               packet work; its traced run adds the sharded engine
//   tenant_mix  2x4 cluster under JobManager: allreduce + netrpc + a fluid
//               and a packet best-effort tenant, isolation on
//
// Every workload is a closed loop: one iteration (an allreduce step, or one
// JobManager::run) starts only after the previous one returned.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  /// false: end-to-end metrics from untraced runs. true: per-layer
  /// metrics from a separate traced run (telemetry registry on, spans).
  bool trace = false;
};

bool known_workload(const std::string& name);

/// Runs `opts.workload` and returns its metrics and correctness tally.
/// Deterministic per-iteration counts of a traced run are also printed as
/// one `counts {...}` line. `host.shards` is set to the engine's shards.
Result run_workload(const Options& opts, Spans& spans, Host& host);

}  // namespace perfbench
