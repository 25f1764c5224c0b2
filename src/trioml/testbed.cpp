#include "trioml/testbed.hpp"

#include <cstdio>
#include <stdexcept>

#include "trioml/addressing.hpp"

namespace trioml {

namespace {

// The Testbed is rack 0 of the shared address plan (trioml/addressing.hpp).
net::MacAddr worker_mac(int i) { return trioml::worker_mac(0, i); }
net::Ipv4Addr worker_ip(int i) { return trioml::worker_ip(0, i); }

}  // namespace

Testbed::Testbed(TestbedConfig config) : config_(config) {
  const net::Ipv4Addr router_ip = aggregator_ip(0);
  const net::Ipv4Addr mcast_group = result_group();

  const int num_pfes = config_.hierarchical ? 6 : 1;
  const int ports_per_pfe =
      std::max(8, (config_.num_workers + num_pfes - 1));
  telemetry::Telemetry& telem = telemetry::or_disabled(config_.telemetry);
  router_ = std::make_unique<trio::Router>(sim_, config_.cal, num_pfes,
                                           ports_per_pfe, telem, "mx480");
  apps_.resize(static_cast<std::size_t>(num_pfes));

  // --- Attach workers -------------------------------------------------------
  // Single level: all on PFE0. Hierarchical (Fig 11): first half on PFE0,
  // second half on PFE1, PFE3 configured as the top-level aggregator.
  std::vector<int> worker_port(static_cast<std::size_t>(config_.num_workers));
  for (int i = 0; i < config_.num_workers; ++i) {
    int port;
    if (!config_.hierarchical) {
      port = i;
    } else {
      const int half = (config_.num_workers + 1) / 2;
      port = i < half ? i : ports_per_pfe + (i - half);
    }
    worker_port[static_cast<std::size_t>(i)] = port;
  }

  // --- Multicast group for result delivery ---------------------------------
  auto& fwd = router_->forwarding();
  std::uint32_t group_nh = 0;
  for (int i = 0; i < config_.num_workers; ++i) {
    const std::uint32_t member = fwd.add_nexthop(trio::NexthopUnicast{
        worker_port[static_cast<std::size_t>(i)], worker_mac(i)});
    group_nh = fwd.join_group(mcast_group, member);
    // Unicast /32 route to the worker, for completeness.
    fwd.add_route(worker_ip(i), 32, member);
  }

  // --- Jobs -----------------------------------------------------------------
  auto make_app = [&](int pfe) -> TrioMlApp& {
    auto& slot = apps_[static_cast<std::size_t>(pfe)];
    if (!slot) {
      slot = std::make_unique<TrioMlApp>(router_->pfe(pfe), config_.slab_pool);
      slot->set_aggregation_address(router_ip);
      slot->install();
    }
    return *slot;
  };

  if (!config_.hierarchical) {
    TrioMlApp& app0 = make_app(0);
    TrioMlApp::JobSetup job;
    job.job_id = config_.job_id;
    for (int i = 0; i < config_.num_workers; ++i) {
      job.src_ids.push_back(static_cast<std::uint8_t>(i));
    }
    job.block_grad_max = config_.grads_per_packet;
    job.block_exp_ms = config_.block_exp_ms;
    job.out_src = router_ip;
    job.out_dst = mcast_group;
    job.out_nh = group_nh;
    app0.configure_job(job);
  } else {
    const int half = (config_.num_workers + 1) / 2;
    const int top_pfe = 3;
    const std::uint32_t to_top =
        fwd.add_nexthop(trio::NexthopToPfe{top_pfe});

    // First-level aggregators: PFE0 serves workers [0, half), PFE1 the
    // rest. Their results feed the top-level PFE directly over the
    // fabric, stamped with the PFE's own source id.
    for (int level = 0; level < 2; ++level) {
      TrioMlApp& app = make_app(level);
      TrioMlApp::JobSetup job;
      job.job_id = config_.job_id;
      const int begin = level == 0 ? 0 : half;
      const int end = level == 0 ? half : config_.num_workers;
      for (int i = begin; i < end; ++i) {
        job.src_ids.push_back(static_cast<std::uint8_t>(i));
      }
      job.block_grad_max = config_.grads_per_packet;
      job.block_exp_ms = config_.block_exp_ms;
      job.out_src = router_ip;
      job.out_dst = router_ip;  // unused: fabric delivery bypasses IP
      job.out_nh = to_top;
      job.out_src_id = static_cast<std::uint8_t>(level);
      app.configure_job(job);
    }

    // Top-level aggregator: sees the two first-level PFEs as sources 0
    // and 1 and multicasts the final result to every worker.
    TrioMlApp& top = make_app(top_pfe);
    TrioMlApp::JobSetup job;
    job.job_id = config_.job_id;
    job.src_ids = {0, 1};
    job.block_grad_max = config_.grads_per_packet;
    job.block_exp_ms = config_.block_exp_ms;
    job.out_src = router_ip;
    job.out_dst = mcast_group;
    job.out_nh = group_nh;
    top.configure_job(job);
  }

  // --- Links and workers ----------------------------------------------------
  for (int i = 0; i < config_.num_workers; ++i) {
    auto link = std::make_unique<net::Link>(sim_, config_.link_gbps,
                                            config_.link_latency);
    TrioMlWorker::Config wc;
    wc.job_id = config_.job_id;
    wc.src_id = static_cast<std::uint8_t>(i);
    wc.ip = worker_ip(i);
    wc.mac = worker_mac(i);
    wc.agg_ip = router_ip;
    wc.window = config_.window;
    wc.grads_per_packet = config_.grads_per_packet;
    wc.expected_sources = static_cast<std::uint8_t>(config_.num_workers);
    auto worker = std::make_unique<TrioMlWorker>(sim_, wc, link->a_to_b());
    link->attach(*worker, 0, *router_, worker_port[static_cast<std::size_t>(i)]);
    char prefix[32];
    std::snprintf(prefix, sizeof(prefix), "link.worker%d.ab.", i);
    link->a_to_b().instrument(telem.metrics, prefix);
    std::snprintf(prefix, sizeof(prefix), "link.worker%d.ba.", i);
    link->b_to_a().instrument(telem.metrics, prefix);
    worker->instrument(telem.metrics, "worker.");
    router_->attach_port(worker_port[static_cast<std::size_t>(i)],
                         link->b_to_a());
    links_.push_back(std::move(link));
    workers_.push_back(std::move(worker));
  }
}

TrioMlApp& Testbed::app(int pfe) {
  auto& slot = apps_.at(static_cast<std::size_t>(pfe));
  if (!slot) throw std::out_of_range("Testbed: no app on that PFE");
  return *slot;
}

std::vector<TrioMlApp*> Testbed::apps() {
  std::vector<TrioMlApp*> out;
  for (auto& a : apps_) {
    if (a) out.push_back(a.get());
  }
  return out;
}

void Testbed::start_straggler_detection(int threads, sim::Duration timeout) {
  for (TrioMlApp* app : apps()) {
    app->start_straggler_detection(threads, timeout);
  }
}

}  // namespace trioml
