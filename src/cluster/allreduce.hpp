// Cluster-wide allreduce driving: start every worker, run the simulation,
// collect per-worker results and throughput — plus the single-router
// Testbed baseline the cluster's results must match bit-for-bit (integer
// gradient addition is associative, so a two-level tree and a flat
// aggregation of the same contributions are bit-identical), and the
// Slow-Worker-Pattern bridge that lets the mltrain straggler generator
// drive an N-rack topology unmodified.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"
#include "mltrain/straggler_gen.hpp"
#include "trioml/host.hpp"

namespace cluster {

struct AllreduceRun {
  /// Per-worker results, rack-major global order; empty grads for workers
  /// that did not finish before the deadline.
  std::vector<trioml::AllreduceResult> results;
  int finished = 0;          // workers whose final result arrived
  sim::Time start;
  sim::Time finish;          // last result arrival (or the deadline)
  std::uint64_t gradient_bytes = 0;  // payload pushed by all workers

  double duration_us() const { return (finish - start).us(); }
  /// Aggregate allreduce goodput: gradient payload from every worker over
  /// the run's duration.
  double goodput_gbps() const {
    const double ns = double((finish - start).ns());
    return ns <= 0 ? 0 : double(gradient_bytes) * 8.0 / ns;
  }
  /// Rolls `finished` and `finish` up from `results` once the simulator
  /// is parked.
  void tally();
};

/// Starts an allreduce of `grads[w]` on every worker `w` (size must equal
/// Cluster::num_workers()), recording into `run`, which must stay in place
/// while the workers run. Each completion writes only its own `results`
/// element, so any shard count is safe; call run.tally() afterwards.
void start_allreduce(Cluster& cluster,
                     const std::vector<std::vector<std::uint32_t>>& grads,
                     std::uint16_t gen_id, AllreduceRun& run);

/// start_allreduce() on every worker, then runs the simulation until the
/// event queue drains, or until `deadline` when timer threads (straggler
/// detection, trace sampling) keep the queue non-empty.
AllreduceRun run_allreduce(Cluster& cluster,
                           const std::vector<std::vector<std::uint32_t>>& grads,
                           std::uint16_t gen_id = 1,
                           sim::Time deadline = sim::Time::max());

/// Deterministic per-worker gradient vectors (worker-dependent values) for
/// equivalence checks and benches.
std::vector<std::vector<std::uint32_t>> patterned_gradients(
    int workers, std::size_t grads_per_worker);

/// Runs the same per-worker gradients through a single-router
/// trioml::Testbed with the cluster's job parameters — the flat baseline
/// a multi-rack run is compared against.
std::vector<trioml::AllreduceResult> testbed_baseline(
    const ClusterSpec& spec,
    const std::vector<std::vector<std::uint32_t>>& grads,
    std::uint16_t gen_id = 1);

/// True when every worker's result gradients match bit-for-bit.
bool bit_identical(const std::vector<trioml::AllreduceResult>& a,
                   const std::vector<trioml::AllreduceResult>& b);

/// sim::Digest over every result in order — its gradient count as a u32,
/// then its gradient bytes (an unfinished worker folds a zero count). The
/// fingerprint jobs::TenantRun::digest() reports for allreduce tenants.
std::uint64_t results_digest(
    const std::vector<trioml::AllreduceResult>& results);

/// Applies one iteration of the Slow Worker Pattern (paper §6.1) to the
/// cluster's workers: each drawn delay becomes a transmission stall on
/// the corresponding global worker. Returns the per-worker delays in ms.
std::vector<double> inject_stragglers(Cluster& cluster,
                                      mltrain::SlowWorkerPattern& pattern);

}  // namespace cluster
