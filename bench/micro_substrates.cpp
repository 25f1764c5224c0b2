// google-benchmark microbenchmarks of the substrates, including the
// ablations called out in DESIGN.md:
//   * RMW-offload vs conventional line-ownership access (§2.3 argument);
//   * single- vs multi-thread hash-table scanning (§5's 1/N partitioning);
//   * event-queue, SMS, hash, packet parse and Microcode dispatch costs
//     (simulator-host performance, i.e. how fast the simulation runs).
#include <benchmark/benchmark.h>

#include <memory>

#include "microcode/compiler.hpp"
#include "microcode/interpreter.hpp"
#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "telemetry/metrics.hpp"
#include "trio/hash_table.hpp"
#include "trio/router.hpp"
#include "trio/sms.hpp"
#include "trioml/testbed.hpp"
#include "trioml/wire_format.hpp"

namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_in(sim::Duration(i), [] {});
    }
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_EventQueueScheduleRunCapture(benchmark::State& state) {
  // The simulator's real closures carry 24-88 byte captures (link
  // delivery: this + peer + port + PacketPtr ~= 40 B), which std::function
  // heap-allocated on every schedule. Steady-state: one simulator, the
  // slot table and heap are warm.
  sim::Simulator sim;
  std::uint64_t sink = 0;
  void* peer = &sim;
  const auto work = [&sink, peer, port = 3, a = 1ull, b = 2ull, c = 3ull] {
    sink += a + b + c + static_cast<std::uint64_t>(port);
  };
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_in(sim::Duration(i % 17), work);
    }
    sim.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRunCapture);

void BM_EventQueueCancel(benchmark::State& state) {
  // The timer-thread / retransmit pattern: arm, cancel before firing,
  // re-arm. The indexed heap removes cancelled entries immediately
  // instead of tombstoning them through the pop path.
  sim::Simulator sim;
  std::uint64_t sink = 0;
  std::vector<sim::EventId> ids(1000);
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      ids[static_cast<std::size_t>(i)] =
          sim.schedule_in(sim::Duration(1000 + i % 13), [&sink] { ++sink; });
    }
    for (int i = 0; i < 1000; ++i) {
      sim.cancel(ids[static_cast<std::size_t>(i)]);
    }
    for (int i = 0; i < 500; ++i) {
      sim.schedule_in(sim::Duration(i % 7), [&sink] { ++sink; });
    }
    sim.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueCancel);

void BM_EventQueueAtDepth(benchmark::State& state) {
  // One push plus one pop with `depth` events pending at distinct times:
  // the benchmark workloads' queue shape (about 112 events pending per pop
  // on agg_large, 1 552 on agg_small). The batches above crowd 1 000
  // events onto 17 instants instead, so they cannot show it.
  const auto depth = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(0xde97);
  std::vector<sim::Duration> gaps(std::size_t{1} << 16);
  for (auto& g : gaps) g = sim::Duration(rng.uniform_int(1, 1 << 30));
  sim::EventQueue q;
  std::uint64_t sink = 0;
  std::size_t next = 0;
  const auto push = [&] {
    q.schedule(q.now() + gaps[next++ % gaps.size()], [&sink] { ++sink; });
  };
  for (std::size_t i = 0; i < depth; ++i) push();
  for (auto _ : state) {
    push();
    q.pop_and_run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueAtDepth)->Arg(112)->Arg(1552);

void BM_PacketMakeRecycle(benchmark::State& state) {
  // Steady-state packet churn at the workloads' payload sizes: frame
  // bytes and the shared_ptr cell come from the thread-local recycler
  // (sim/recycler.hpp), so the allocator is out of the loop.
  const std::vector<std::uint8_t> payload(
      static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    auto p = net::Packet::make(net::build_udp_frame(
        {1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2},
        net::Ipv4Addr::from_octets(10, 0, 0, 1),
        net::Ipv4Addr::from_octets(10, 0, 0, 2), 1, 2, payload));
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacketMakeRecycle)->Arg(256)->Arg(1400)->Arg(4096);

void BM_SmsAddVec32(benchmark::State& state) {
  sim::Simulator sim;
  trio::SharedMemorySystem sms(sim, trio::Calibration{});
  trio::XtxnRequest add;
  add.op = trio::XtxnOp::kAddVec32;
  add.data.assign(64, 1);
  trio::XtxnReply reply;
  std::uint64_t addr = 0;
  for (auto _ : state) {
    add.addr = addr;
    addr = (addr + 64) % (1 << 20);
    sms.issue(add, reply);
  }
  state.SetItemsProcessed(state.iterations() * 16);  // adds per request
}
BENCHMARK(BM_SmsAddVec32);

void BM_SmsRmwVsLineOwnership(benchmark::State& state) {
  // arg 0: Trio RMW engines; arg 1: conventional line ownership. The
  // *simulated* completion time per op is reported as a counter.
  sim::Simulator sim;
  trio::SharedMemorySystem sms(sim, trio::Calibration{});
  sms.set_line_ownership_mode(state.range(0) == 1);
  trio::XtxnRequest add;
  add.op = trio::XtxnOp::kAddVec32;
  add.addr = 0;  // all on one bank: maximum contention
  add.data.assign(64, 1);
  trio::XtxnReply reply;
  sim::Time last;
  std::uint64_t n = 0;
  for (auto _ : state) {
    last = sms.issue(add, reply);
    ++n;
  }
  state.counters["sim_ns_per_op"] =
      static_cast<double>(last.ns()) / static_cast<double>(n);
}
BENCHMARK(BM_SmsRmwVsLineOwnership)->Arg(0)->Arg(1);

void BM_HashTableLookup(benchmark::State& state) {
  sim::Simulator sim;
  trio::HwHashTable table(sim, trio::Calibration{}, 1 << 14);
  for (std::uint64_t k = 0; k < 10'000; ++k) table.insert(k, k);
  std::uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(k));
    k = (k + 1) % 10'000;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashTableLookup);

void BM_HashScanPartitioned(benchmark::State& state) {
  // The §5 ablation: scanning a big table in 1 partition vs N. The work
  // per *thread* shrinks by N; total work stays the same.
  const auto parts = static_cast<std::uint32_t>(state.range(0));
  sim::Simulator sim;
  trio::HwHashTable table(sim, trio::Calibration{}, 1 << 14);
  for (std::uint64_t k = 0; k < 50'000; ++k) table.insert(k, k);
  for (auto _ : state) {
    for (std::uint32_t p = 0; p < parts; ++p) {
      benchmark::DoNotOptimize(table.scan_partition(p, parts, 1 << 20));
    }
  }
  state.counters["buckets_per_thread"] =
      static_cast<double>(table.partition_buckets(parts));
}
BENCHMARK(BM_HashScanPartitioned)->Arg(1)->Arg(10)->Arg(100);

void BM_HashTableBuild(benchmark::State& state) {
  // Every PFE builds a 16 384-bucket table at router construction: one
  // build and teardown, before any record is inserted.
  sim::Simulator sim;
  for (auto _ : state) {
    trio::HwHashTable table(sim, trio::Calibration{}, 1 << 14);
    benchmark::DoNotOptimize(table.bucket_count());
  }
}
BENCHMARK(BM_HashTableBuild);

void BM_PacketParse(benchmark::State& state) {
  std::vector<std::uint32_t> grads(256, 7);
  trioml::TrioMlHeader hdr;
  hdr.job_id = 1;
  auto frame = trioml::build_aggregation_frame(
      {1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2},
      net::Ipv4Addr::from_octets(10, 0, 0, 1),
      net::Ipv4Addr::from_octets(10, 0, 0, 254), 20000, hdr, grads);
  for (auto _ : state) {
    const auto eth = net::EthernetHeader::parse(frame, 0);
    const auto ip =
        net::Ipv4Header::parse(frame, net::UdpFrameLayout::kIpOff);
    const auto udp =
        net::UdpHeader::parse(frame, net::UdpFrameLayout::kUdpOff);
    const auto ml = trioml::TrioMlHeader::parse(frame, trioml::kTrioMlHdrOff);
    benchmark::DoNotOptimize(eth);
    benchmark::DoNotOptimize(ip);
    benchmark::DoNotOptimize(udp);
    benchmark::DoNotOptimize(ml);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacketParse);

void BM_MicrocodeFilterProgram(benchmark::State& state) {
  // End-to-end simulated cost of the §3.2 filter program per packet.
  static const char* kSrc = R"(
    struct ether_t { dmac : 48; smac : 48; etype : 16; };
    struct ipv4_t { ver : 4; ihl : 4; tos : 8; len : 16; };
    virtual const DROP_CNT_BASE = 64;
    memory ether_t *ether_ptr = 0;
    process_ether:
    begin
      ir0 = 0;
      if (ether_ptr->etype == 0x0800) { goto process_ip; }
      goto count_dropped;
    end
    process_ip:
    begin
      const ipv4_t *ipv4_addr = ether_ptr + sizeof(ether_t);
      ir0 = 1;
      if (ipv4_addr->ver == 4 && ipv4_addr->ihl == 5) { goto fwd; }
      goto count_dropped;
    end
    count_dropped:
    begin
      const : addr = DROP_CNT_BASE + ir0 * 2;
      CounterIncPhys(addr, r_work.pkt_len);
      goto drop;
    end
    fwd:
    begin
      Forward(0);
      Exit();
    end
    drop:
    begin
      Drop();
    end
  )";
  auto program = microcode::compile(kSrc);
  std::vector<std::uint8_t> payload(64, 0);
  auto frame = net::build_udp_frame({1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2},
                                    net::Ipv4Addr::from_octets(10, 0, 0, 1),
                                    net::Ipv4Addr::from_octets(10, 0, 0, 2),
                                    1, 2, payload);
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim;
    trio::Router router(sim, trio::Calibration{}, 1, 2);
    router.forwarding().add_nexthop(trio::NexthopUnicast{1, {}});
    router.attach_port_sink(1, [](net::PacketPtr) {});
    router.pfe(0).set_program_factory(
        microcode::make_program_factory(program));
    state.ResumeTiming();
    for (int i = 0; i < 64; ++i) {
      router.receive(net::Packet::make(frame), 0);
    }
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_MicrocodeFilterProgram);

void BM_CompileMicrocode(benchmark::State& state) {
  static const char* kSrc = R"(
    struct h_t { a : 8; b : 8; };
    memory h_t *p = 0;
    main:
    begin
      ir0 = p->a;
      if (ir0 == 1) { goto other; }
      Exit();
    end
    other:
    begin
      ir1 = p->b;
      Exit();
    end
  )";
  for (auto _ : state) {
    benchmark::DoNotOptimize(microcode::compile(kSrc));
  }
}
BENCHMARK(BM_CompileMicrocode);

void BM_TelemetryCounterInc(benchmark::State& state) {
  // The counter's hot path (docs/telemetry.md): a Counter is its owner's
  // count, so every inc() adds to its own total; bound to an enabled
  // registry it also adds to the shared cell. Disabled, that is one add
  // and one perfectly-predicted branch, the cost of the plain count it
  // replaced. Compare Arg(0) (disabled) against Arg(1) (enabled): the
  // disabled row must not be slower.
  const bool enabled = state.range(0) == 1;
  telemetry::Registry registry(enabled);
  telemetry::Counter ctr = registry.counter("bench.hot_counter");
  telemetry::Histogram hist = registry.histogram("bench.hot_hist");
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) {
      ctr.inc();
      benchmark::DoNotOptimize(ctr);  // one add per inc(), not one per loop
      hist.record(i);
    }
  }
  benchmark::DoNotOptimize(ctr.value());
  benchmark::DoNotOptimize(registry.counter_value("bench.hot_counter"));
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_TelemetryCounterInc)->Arg(0)->Arg(1);

void BM_TrioMlHeadVsTailSplit(benchmark::State& state) {
  // Ablation (DESIGN.md): the head/tail split. 32-gradient packets fit
  // entirely in the 192-byte head (zero tail XTXNs); 1024-gradient
  // packets stream ~97% of their gradients through the 64-byte tail-read
  // loop. The counter reports *simulated* time per gradient for each.
  const int grads_per_packet = static_cast<int>(state.range(0));
  double sim_ns_per_grad = 0;
  std::uint64_t tail_bytes = 0;
  for (auto _ : state) {
    trioml::TestbedConfig cfg;
    cfg.num_workers = 2;
    cfg.grads_per_packet = static_cast<std::uint16_t>(grads_per_packet);
    cfg.window = 1;
    cfg.slab_pool = 64;
    trioml::Testbed tb(cfg);
    const std::size_t blocks = 64;
    for (int w = 0; w < 2; ++w) {
      std::vector<std::uint32_t> g(
          static_cast<std::size_t>(grads_per_packet) * blocks, 1);
      tb.worker(w).start_allreduce(std::move(g), 1,
                                   [](trioml::AllreduceResult) {});
    }
    tb.simulator().run();
    sim_ns_per_grad =
        tb.app(0).stats().packet_latency_us.mean() * 1e3 / grads_per_packet;
    tail_bytes = tb.router().pfe(0).mqss().tail_bytes_read();
  }
  state.counters["sim_ns_per_grad"] = sim_ns_per_grad;
  state.counters["tail_bytes_read"] = static_cast<double>(tail_bytes);
}
BENCHMARK(BM_TrioMlHeadVsTailSplit)->Arg(32)->Arg(1024)->Iterations(3);

void BM_TrioMlAppBuild(benchmark::State& state) {
  // Control-plane build cost: one aggregation app with the default 8 192
  // slabs, built and destroyed on a fresh single-PFE router (the router's
  // own build and teardown are untimed).
  for (auto _ : state) {
    state.PauseTiming();
    auto sim = std::make_unique<sim::Simulator>();
    auto router =
        std::make_unique<trio::Router>(*sim, trio::Calibration{}, 1, 1, "r");
    state.ResumeTiming();
    {
      trioml::TrioMlApp app(router->pfe(0), 8192);
      benchmark::DoNotOptimize(app.free_slab_count());
    }
    state.PauseTiming();
    router.reset();
    sim.reset();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_TrioMlAppBuild);

void BM_RouterBuild(benchmark::State& state) {
  // An unobserved leaf of agg_large's 8x8 (one PFE, nine ports), built and
  // torn down: the shared disabled bundle names no metrics, so this is the
  // router's own structures only (docs/performance.md section 8).
  sim::Simulator sim;
  for (auto _ : state) {
    trio::Router router(sim, trio::Calibration{}, 1, 9, "rack0");
    benchmark::DoNotOptimize(router.num_ports());
  }
}
BENCHMARK(BM_RouterBuild);

}  // namespace

BENCHMARK_MAIN();
