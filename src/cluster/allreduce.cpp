#include "cluster/allreduce.hpp"

#include <cstring>
#include <stdexcept>

#include "sim/digest.hpp"
#include "trioml/testbed.hpp"

namespace cluster {

void AllreduceRun::tally() {
  finished = 0;
  for (const auto& r : results) {
    if (!r.grads.empty()) ++finished;
    if (r.finish > finish) finish = r.finish;
  }
}

void start_allreduce(Cluster& cluster,
                     const std::vector<std::vector<std::uint32_t>>& grads,
                     std::uint16_t gen_id, AllreduceRun& run) {
  const int n = cluster.num_workers();
  if (static_cast<int>(grads.size()) != n) {
    throw std::invalid_argument(
        "start_allreduce: one gradient vector per worker");
  }
  run = AllreduceRun{};
  run.results.resize(std::size_t(n));
  run.start = cluster.simulator().now();
  run.finish = run.start;
  for (int w = 0; w < n; ++w) {
    run.gradient_bytes += std::uint64_t(grads[std::size_t(w)].size()) * 4;
    // The completion callback runs on worker w's shard thread; it touches
    // only its own results element (disjoint writes, published by the
    // engine's end-of-run synchronisation). The rollups happen in tally().
    cluster.worker(w).start_allreduce(
        grads[std::size_t(w)], gen_id, [&run, w](trioml::AllreduceResult r) {
          run.results[std::size_t(w)] = std::move(r);
        });
  }
}

AllreduceRun run_allreduce(Cluster& cluster,
                           const std::vector<std::vector<std::uint32_t>>& grads,
                           std::uint16_t gen_id, sim::Time deadline) {
  AllreduceRun run;
  start_allreduce(cluster, grads, gen_id, run);
  if (deadline == sim::Time::max()) {
    cluster.simulator().run();
  } else {
    cluster.simulator().run_until(deadline);
  }
  run.tally();
  return run;
}

std::vector<std::vector<std::uint32_t>> patterned_gradients(
    int workers, std::size_t grads_per_worker) {
  std::vector<std::vector<std::uint32_t>> out(
      static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    auto& g = out[std::size_t(w)];
    g.resize(grads_per_worker);
    for (std::size_t j = 0; j < grads_per_worker; ++j) {
      g[j] = std::uint32_t(w * 37 + int(j % 11) + 1);
    }
  }
  return out;
}

std::vector<trioml::AllreduceResult> testbed_baseline(
    const ClusterSpec& spec,
    const std::vector<std::vector<std::uint32_t>>& grads,
    std::uint16_t gen_id) {
  trioml::TestbedConfig cfg;
  cfg.num_workers = spec.total_workers();
  cfg.link_gbps = spec.host_link.gbps;
  cfg.link_latency = spec.host_link.latency;
  cfg.grads_per_packet = spec.grads_per_packet;
  cfg.window = spec.window;
  cfg.job_id = spec.job_id;
  cfg.block_exp_ms = spec.block_exp_ms;
  cfg.slab_pool = spec.slab_pool;
  cfg.cal = spec.cal;
  trioml::Testbed tb(cfg);
  std::vector<trioml::AllreduceResult> results(grads.size());
  for (int w = 0; w < cfg.num_workers; ++w) {
    tb.worker(w).start_allreduce(
        grads[std::size_t(w)], gen_id,
        [&results, w](trioml::AllreduceResult r) {
          results[std::size_t(w)] = std::move(r);
        });
  }
  tb.simulator().run();
  return results;
}

bool bit_identical(const std::vector<trioml::AllreduceResult>& a,
                   const std::vector<trioml::AllreduceResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& ga = a[i].grads;
    const auto& gb = b[i].grads;
    if (ga.size() != gb.size()) return false;
    if (!ga.empty() &&
        std::memcmp(ga.data(), gb.data(), ga.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

std::uint64_t results_digest(
    const std::vector<trioml::AllreduceResult>& results) {
  sim::Digest d;
  for (const auto& r : results) {
    const std::uint32_t n = std::uint32_t(r.grads.size());
    d.bytes(&n, sizeof(n)).bytes(r.grads.data(), r.grads.size() * sizeof(float));
  }
  return d.value();
}

std::vector<double> inject_stragglers(Cluster& cluster,
                                      mltrain::SlowWorkerPattern& pattern) {
  const std::vector<double> delays = pattern.next_iteration_delays();
  const int n = std::min<int>(cluster.num_workers(),
                              static_cast<int>(delays.size()));
  for (int w = 0; w < n; ++w) {
    if (delays[std::size_t(w)] > 0) {
      cluster.worker(w).stall_for(sim::Duration(
          std::int64_t(delays[std::size_t(w)] * 1e6)));
    }
  }
  return delays;
}

}  // namespace cluster
