// Noisy-neighbour tenancy sweep (extension, docs/jobs.md): tenant count x
// aggressor load vs the victim tenant's p99 block latency, with per-tenant
// fabric isolation on and off.
//
// Each sweep point admits one victim allreduce tenant (WDRR weight 4),
// zero or more co-tenant allreduce jobs (weight 1) and one best-effort
// aggressor offering the given fraction of every host link's line rate,
// onto one shared 2-rack cluster. With isolation on (hash-table key
// partitions + MQSS weighted per-tenant queues) the victim's p99 must
// stay within 2x of its solo-run baseline at every point; with isolation
// off the aggressor is free to degrade it. The 3-tenant point is run
// twice, the second time with one shard per router, and the per-tenant
// golden digests compared, so the bench doubles as the multi-tenant
// determinism check and shard-count oracle, and every victim result is
// checked bit-identical to the solo run.
//
//   fig_tenancy [--quick] [--json-out=<file>]   # BENCH_tenancy.json in CI
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cluster/allreduce.hpp"
#include "cluster/cluster.hpp"
#include "jobs/job_manager.hpp"
#include "jobs/tenant.hpp"

namespace {

struct Point {
  int allreduce_tenants;  // victim + co-tenants
  double load;            // aggressor offered load (0 = no aggressor)
  bool isolation;
};

struct Outcome {
  double victim_p99_us = 0;
  double victim_duration_us = 0;
  int victim_finished = 0;
  bool victim_bit_identical = false;
  std::vector<std::uint64_t> digests;  // admission order
};

constexpr jobs::TenantId kVictim = 2;

cluster::ClusterSpec tenancy_spec() {
  cluster::ClusterSpec spec;
  spec.racks = 2;
  spec.workers_per_rack = 2;
  spec.grads_per_packet = 128;
  spec.slab_pool = 1024;
  return spec;
}

jobs::TenantSpec victim_tenant() {
  jobs::TenantSpec t;
  t.id = kVictim;
  t.kind = jobs::TenantKind::kAllreduce;
  t.weight = 4;
  t.grads = 128 * 32;  // 32 blocks per worker
  t.window = 64;
  t.block_cnt_max = 256;
  return t;
}

double victim_p99(jobs::JobManager& mgr, int workers) {
  sim::Samples all;
  for (int w = 0; w < workers; ++w) {
    for (double v : mgr.tenant_worker(kVictim, w)->block_latency_us().values()) {
      all.add(v);
    }
  }
  return all.percentile(99);
}

Outcome run_point(const Point& p,
                  const std::vector<trioml::AllreduceResult>* solo_results,
                  bool shard_per_router = false) {
  cluster::ClusterSpec spec = tenancy_spec();
  if (shard_per_router) spec.shards = spec.routers();
  cluster::Cluster cl(spec);
  jobs::JobManager mgr(cl);
  if (!mgr.admit(victim_tenant()).admitted) return {};
  for (int t = 1; t < p.allreduce_tenants; ++t) {
    jobs::TenantSpec co = victim_tenant();
    co.id = jobs::TenantId(kVictim + t);
    co.weight = 1;
    if (!mgr.admit(co).admitted) return {};
  }
  if (p.load > 0) {
    jobs::TenantSpec aggressor;
    aggressor.id = jobs::TenantId(kVictim + p.allreduce_tenants);
    aggressor.kind = jobs::TenantKind::kBestEffort;
    aggressor.load = p.load;
    if (!mgr.admit(aggressor).admitted) return {};
  }
  if (p.isolation) mgr.enable_isolation();

  const auto run =
      mgr.run(/*gen_id=*/1, sim::Time(sim::Duration::millis(50).ns()));

  Outcome out;
  const jobs::TenantRun* victim = run.tenant(kVictim);
  if (victim == nullptr) return out;
  out.victim_p99_us = victim_p99(mgr, cl.num_workers());
  out.victim_duration_us = victim->duration_us();
  out.victim_finished = victim->finished;
  out.victim_bit_identical =
      solo_results != nullptr &&
      cluster::bit_identical(*solo_results, victim->results);
  for (const auto& tr : run.tenants) out.digests.push_back(tr.digest());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::string json_out = benchutil::parse_json_out_flag(argc, argv);

  benchutil::banner(
      "Tenancy sweep: tenant count x aggressor load vs victim p99",
      "extension of SS5 (in-network aggregation) to multi-tenant jobs, "
      "docs/jobs.md");

  // Solo baseline: the victim alone on an idle fabric.
  const Point solo_point{1, 0.0, false};
  const Outcome solo = run_point(solo_point, nullptr);
  cluster::Cluster probe(tenancy_spec());
  const int workers = probe.num_workers();
  if (solo.victim_finished < workers || solo.victim_p99_us <= 0) {
    std::fprintf(stderr, "solo baseline failed to converge\n");
    return 1;
  }
  std::printf("solo baseline: p99 %.2f us, allreduce %.2f us, %d/%d workers\n\n",
              solo.victim_p99_us, solo.victim_duration_us,
              solo.victim_finished, workers);
  // The per-worker results the multi-tenant victim must reproduce bit for
  // bit. Re-run to capture them (run_point does not keep results).
  std::vector<trioml::AllreduceResult> solo_results;
  {
    cluster::Cluster cl(tenancy_spec());
    jobs::JobManager mgr(cl);
    mgr.admit(victim_tenant());
    auto run = mgr.run(1, sim::Time(sim::Duration::millis(50).ns()));
    solo_results = run.tenant(kVictim)->results;
  }

  std::vector<int> tenant_counts = {2, 3};
  std::vector<double> loads = {0.3, 0.6, 0.9};
  if (quick) {
    tenant_counts = {2};
    loads = {0.9};
  }

  benchutil::row({"tenants", "load", "isolation", "p99_us", "ratio",
                  "finished", "bit_ident"}, 11);
  benchutil::JsonSeries series;
  int failures = 0;
  double top_load_ratio_on = 0, top_load_ratio_off = 0;
  for (int tenants : tenant_counts) {
    for (double load : loads) {
      for (bool isolation : {true, false}) {
        const Point p{tenants, load, isolation};
        const Outcome out = run_point(p, &solo_results);
        const double ratio = out.victim_p99_us / solo.victim_p99_us;
        // The headline bound: an admitted victim behind weighted queues
        // and partitioned buckets keeps p99 within 2x of its solo run.
        const bool bounded = ratio <= 2.0;
        if (isolation && (!bounded || out.victim_finished < workers ||
                          !out.victim_bit_identical)) {
          ++failures;
        }
        if (load == loads.back() && tenants == tenant_counts.back()) {
          (isolation ? top_load_ratio_on : top_load_ratio_off) = ratio;
        }
        benchutil::row(
            {std::to_string(tenants + (load > 0 ? 1 : 0)),
             benchutil::fmt(load, 1), isolation ? "on" : "off",
             benchutil::fmt(out.victim_p99_us), benchutil::fmt(ratio),
             std::to_string(out.victim_finished) + "/" +
                 std::to_string(workers),
             out.victim_bit_identical ? "yes" : "NO"},
            11);
        series.number("allreduce_tenants", std::uint64_t(tenants))
            .number("aggressor_load", load)
            .boolean("isolation", isolation)
            .number("victim_p99_us", out.victim_p99_us)
            .number("solo_p99_us", solo.victim_p99_us)
            .number("p99_ratio_vs_solo", ratio)
            .number("victim_allreduce_us", out.victim_duration_us)
            .number("victim_finished", std::uint64_t(out.victim_finished))
            .boolean("victim_bit_identical", out.victim_bit_identical)
            .end_row();
      }
    }
  }

  // 3-tenant golden digest: two victims-and-aggressor runs must agree on
  // every tenant's result fingerprint.
  const Point golden{2, 0.9, true};
  const Outcome g1 = run_point(golden, &solo_results);
  const Outcome g2 =
      run_point(golden, &solo_results, /*shard_per_router=*/true);
  const bool deterministic = !g1.digests.empty() && g1.digests == g2.digests;
  if (!deterministic) ++failures;
  std::printf("\n3-tenant golden digests:");
  for (std::uint64_t d : g1.digests) {
    std::printf(" %016llx", static_cast<unsigned long long>(d));
  }
  std::printf(" (replay %s)\n", deterministic ? "identical" : "DIVERGED");
  series.string("check", "golden_digest_determinism")
      .boolean("deterministic", deterministic)
      .end_row();

  if (!quick && top_load_ratio_off <= top_load_ratio_on) {
    std::printf(
        "note: isolation-off p99 ratio %.2f not worse than isolated %.2f "
        "at top load\n",
        top_load_ratio_off, top_load_ratio_on);
  }

  if (!json_out.empty() && series.write_file(json_out)) {
    std::printf("\nwrote %zu rows to %s\n", series.row_count(),
                json_out.c_str());
  }
  if (failures != 0) {
    std::printf("\n%d sweep point(s) violated the isolation bound\n",
                failures);
    return 1;
  }
  return 0;
}
