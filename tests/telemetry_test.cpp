// Tests for the telemetry subsystem: registry semantics (counters,
// gauges, HDR histograms), JSON export well-formedness, and a golden
// two-packet router run asserting the Chrome-trace content, deterministic
// counter values and that every registry counter equals its component's
// accessor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "net/headers.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "trio/router.hpp"

namespace {

using telemetry::HistogramData;

/// Minimal structural JSON validator: balanced {} / [] outside strings,
/// escape-aware, ends at depth zero having seen at least one container.
bool json_balanced(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  bool saw_container = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip escaped char
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        ++depth;
        saw_container = true;
        break;
      case '}':
      case ']':
        if (--depth < 0) return false;
        break;
      default:
        break;
    }
  }
  return depth == 0 && !in_string && saw_container;
}

TEST(Counter, IncrementAndReadBack) {
  telemetry::Registry registry(true);
  telemetry::Counter c = registry.counter("a.count");
  EXPECT_TRUE(c.live());
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(registry.counter_value("a.count"), 42u);
  EXPECT_EQ(registry.counter_value("no.such"), 0u);
}

TEST(Counter, SameNameSharesOneCell) {
  telemetry::Registry registry(true);
  telemetry::Counter a = registry.counter("shared");
  telemetry::Counter b = registry.counter("shared");
  a.inc(3);
  b.inc(4);
  EXPECT_EQ(registry.counter_value("shared"), 7u);
  EXPECT_EQ(registry.metric_count(), 1u);
}

TEST(Counter, DisabledRegistryHandsOutInertHandles) {
  telemetry::Registry registry(false);
  telemetry::Counter c = registry.counter("x");
  telemetry::Gauge g = registry.gauge("y");
  telemetry::Histogram h = registry.histogram("z");
  EXPECT_FALSE(c.live());
  EXPECT_FALSE(g.live());
  EXPECT_FALSE(h.live());
  c.inc(100);  // counts for its owner; the registry stays empty
  g.set(5);
  h.record(123);
  EXPECT_EQ(c.value(), 100u);
  EXPECT_EQ(registry.counter_value("x"), 0u);
  EXPECT_EQ(registry.metric_count(), 0u);
}

TEST(Counter, BindingKeepsTheCount) {
  telemetry::Registry registry(true);
  telemetry::Counter c;
  c.inc(5);  // before binding: the owner's total only
  registry.bind(c, "a.", "count");
  EXPECT_TRUE(c.live());
  c.inc(3);
  EXPECT_EQ(c.value(), 8u);
  EXPECT_EQ(registry.counter_value("a.count"), 3u);
  // Binding again moves later increments to the new cell; the total and
  // the old cell keep what they had.
  registry.bind(c, "b.count");
  c.inc(2);
  EXPECT_EQ(c.value(), 10u);
  EXPECT_EQ(registry.counter_value("a.count"), 3u);
  EXPECT_EQ(registry.counter_value("b.count"), 2u);
  // A disabled registry unbinds and names nothing; the total stays.
  telemetry::Registry off(false);
  off.bind(c, "c.count");
  EXPECT_FALSE(c.live());
  c.inc();
  EXPECT_EQ(c.value(), 11u);
  EXPECT_EQ(registry.counter_value("b.count"), 2u);
  EXPECT_EQ(off.metric_count(), 0u);
}

TEST(Gauge, SetAndAdd) {
  telemetry::Registry registry(true);
  telemetry::Gauge g = registry.gauge("depth");
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  EXPECT_EQ(registry.gauge_value("depth"), 7);
  g.set(-2);  // gauges may go negative
  EXPECT_EQ(registry.gauge_value("depth"), -2);
}

TEST(Histogram, SmallValuesAreExact) {
  HistogramData h;
  for (std::int64_t v = 0; v < 32; ++v) h.record(v);
  EXPECT_EQ(h.count(), 32u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 31);
  EXPECT_DOUBLE_EQ(h.mean(), 15.5);
  // Values below kSubBuckets land in their own bucket: percentiles exact.
  EXPECT_EQ(h.percentile(50), 15);  // nearest rank: 16th of 32
  EXPECT_EQ(h.percentile(100), 31);
}

TEST(Histogram, NearestRankPercentile) {
  HistogramData h;
  for (std::int64_t v : {10, 20, 30, 40}) h.record(v);
  EXPECT_EQ(h.percentile(25), 10);
  EXPECT_EQ(h.percentile(50), 20);
  EXPECT_EQ(h.percentile(75), 30);
  EXPECT_EQ(h.percentile(100), 40);
}

TEST(Histogram, QuantizationErrorBounded) {
  // Above the exact range values are bucketized; the reported percentile
  // is the bucket's lower bound, at most 1/32 (~3.1%) below the value.
  HistogramData h;
  const std::int64_t v = 1'000'000;
  h.record(v);
  const std::int64_t p50 = h.percentile(50);
  EXPECT_LE(p50, v);
  EXPECT_GE(p50, v - v / 32 - 1);
  // min/max stay exact and clamp the extreme percentiles.
  EXPECT_EQ(h.min(), v);
  EXPECT_EQ(h.max(), v);
  EXPECT_EQ(h.percentile(100), v);
}

TEST(Histogram, BucketIndexRoundTrips) {
  for (std::uint64_t v :
       {0ull, 1ull, 31ull, 32ull, 33ull, 1023ull, 65536ull, 1'000'000ull,
        (1ull << 40) + 12345ull}) {
    const std::size_t idx = HistogramData::bucket_index(v);
    const std::uint64_t lower = HistogramData::bucket_lower(idx);
    EXPECT_LE(lower, v);
    // The lower bound of the *next* bucket exceeds v.
    EXPECT_GT(HistogramData::bucket_lower(idx + 1), v);
  }
}

TEST(Histogram, MergeAndReset) {
  HistogramData a;
  HistogramData b;
  a.record(10);
  a.record(20);
  b.record(30);
  b.record(40, 2);
  a.merge(b);
  EXPECT_EQ(a.count(), 5u);
  EXPECT_EQ(a.min(), 10);
  EXPECT_EQ(a.max(), 40);
  EXPECT_DOUBLE_EQ(a.sum(), 140.0);
  EXPECT_EQ(a.percentile(100), 40);
  a.reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.min(), 0);
  EXPECT_EQ(a.max(), 0);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

TEST(Histogram, NegativeValuesClampToZeroBucket) {
  HistogramData h;
  h.record(-5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), -5);  // exact min is preserved
  EXPECT_EQ(h.percentile(50), -5);  // clamped to observed min
}

TEST(Registry, JsonExportIsWellFormed) {
  telemetry::Registry registry(true);
  registry.counter("c.one").inc(7);
  registry.gauge("g\"quoted\\name").set(-3);  // exercises escaping
  telemetry::Histogram h = registry.histogram("h.lat");
  h.record(5);
  h.record(500);
  std::ostringstream os;
  registry.write_json(os, sim::Time(1234));
  const std::string json = os.str();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"c.one\""), std::string::npos);
  EXPECT_NE(json.find("\"h.lat\""), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\\name"), std::string::npos);
  EXPECT_NE(json.find("\"sim_time_ns\": 1234"), std::string::npos);
}

TEST(Tracer, EventCapCountsDrops) {
  telemetry::Tracer tracer(true);
  tracer.set_max_events(2);
  tracer.complete(1, 1, "a", sim::Time(0), sim::Time(10));
  tracer.instant(1, 1, "b", sim::Time(5));
  tracer.instant(1, 1, "c", sim::Time(6));  // over the cap
  EXPECT_EQ(tracer.event_count(), 2u);
  EXPECT_EQ(tracer.dropped_events(), 1u);
  // Metadata is exempt from the cap.
  tracer.set_thread_name(1, 1, "row");
  std::ostringstream os;
  tracer.write_json(os);
  EXPECT_NE(os.str().find("\"row\""), std::string::npos);
}

TEST(Tracer, ExportSortsEventsByTimePidAndTid) {
  // Shard threads record in whatever order they run; the export must not
  // depend on it. Metadata keeps its recording order, ahead of the events.
  telemetry::Tracer tracer(true);
  tracer.instant(2, 1, "late", sim::Time(300));
  tracer.set_process_name(2, "second");
  tracer.instant(2, 3, "tid3", sim::Time(100));
  tracer.instant(2, 0, "tid0", sim::Time(100));
  tracer.complete(1, 5, "pid1", sim::Time(100), sim::Time(150));
  tracer.counter(1, "early", "s", sim::Time(50), 3);
  tracer.set_process_name(1, "first");
  std::ostringstream os;
  tracer.write_json(os);
  const std::string json = os.str();
  std::vector<std::size_t> at;
  for (const char* name : {"\"second\"", "\"first\"", "\"early\"", "\"pid1\"",
                           "\"tid0\"", "\"tid3\"", "\"late\""}) {
    at.push_back(json.find(name));
    ASSERT_NE(at.back(), std::string::npos) << name;
  }
  EXPECT_TRUE(std::is_sorted(at.begin(), at.end())) << json;
}

/// Two IPv4/UDP packets through a 1-PFE router with full telemetry:
/// the deterministic counter values and the golden trace content.
class TwoPacketRun : public ::testing::Test {
 protected:
  void Run() {
    const std::uint32_t nh =
        router_.forwarding().add_nexthop(trio::NexthopUnicast{1, {}});
    router_.forwarding().add_route(
        net::Ipv4Addr::from_string("198.51.100.1"), 32, nh);
    router_.attach_port_sink(1, [this](net::PacketPtr) { ++forwarded_; });
    router_.receive(udp_to("198.51.100.1"), 0);
    router_.receive(udp_to("198.51.100.1"), 0);
    sim_.run();
  }

  static net::PacketPtr udp_to(const char* dst) {
    const std::vector<std::uint8_t> payload(100, 0x42);
    return net::Packet::make(net::build_udp_frame(
        {0x02, 0, 0, 0, 0, 1}, {0x02, 0, 0, 0, 0, 2},
        net::Ipv4Addr::from_string("192.0.2.1"),
        net::Ipv4Addr::from_string(dst), 4000, 4001, payload));
  }

  sim::Simulator sim_;
  telemetry::Telemetry telem_{true, true};
  trio::Router router_{sim_, trio::Calibration{}, 1, 4, telem_};
  int forwarded_ = 0;
};

TEST_F(TwoPacketRun, CountersMatchTheDeterministicRun) {
  Run();
  EXPECT_EQ(forwarded_, 2);
  auto& m = telem_.metrics;
  EXPECT_EQ(m.counter_value("router.packets_received"), 2u);
  EXPECT_EQ(m.counter_value("router.packets_transmitted"), 2u);
  EXPECT_EQ(m.counter_value("pfe0.packets_in"), 2u);
  EXPECT_EQ(m.counter_value("pfe0.packets_dispatched"), 2u);
  EXPECT_EQ(m.counter_value("pfe0.dispatch_drops"), 0u);
  EXPECT_EQ(m.counter_value("pfe0.reorder.released"), 2u);
  EXPECT_EQ(m.counter_value("pfe0.threads_started"), 2u);
  // One FIB-walk read per packet through the SMS.
  EXPECT_EQ(m.counter_value("pfe0.sms.ops"), 2u);
  EXPECT_GT(m.counter_value("pfe0.instructions"), 0u);
  const HistogramData* delay = m.find_histogram("pfe0.sms.queue_delay_ns");
  ASSERT_NE(delay, nullptr);
  EXPECT_EQ(delay->count(), 2u);
}

TEST_F(TwoPacketRun, RegistryCountersEqualTheAccessors) {
  Run();
  // Drive the fault counters off zero as well: an unrouted frame, and a
  // stall whose held frame a kill then drops.
  router_.receive(udp_to("203.0.113.9"), 0);
  sim_.run();
  router_.stall_for(sim::Duration::micros(1));
  router_.receive(udp_to("198.51.100.1"), 0);
  router_.kill();
  sim_.run();

  trio::Pfe& pfe = router_.pfe(0);
  std::vector<std::pair<std::string, std::uint64_t>> counts = {
      {"router.packets_received", router_.packets_received()},
      {"router.packets_transmitted", router_.packets_transmitted()},
      {"router.packets_discarded", router_.packets_discarded()},
      {"router.no_route_drops", router_.no_route_drops()},
      {"router.stalls", router_.stalls()},
      {"router.stall_held_frames", router_.stall_held_frames()},
      {"router.kills", router_.kills()},
      {"router.kill_dropped_frames", router_.kill_dropped_frames()},
      {"pfe0.packets_in", pfe.packets_in()},
      {"pfe0.dispatch_drops", pfe.packets_dropped_dispatch()},
      {"pfe0.mqss.tail_bytes_read", pfe.mqss().tail_bytes_read()},
      {"pfe0.mqss.pmem_bytes_written", pfe.mqss().pmem_bytes_written()},
      {"pfe0.reorder.released", pfe.reorder().released()},
      {"pfe0.sms.ops", pfe.sms().ops_processed()},
  };
  // Every PPE of the PFE binds the same two cells.
  std::uint64_t instructions = 0, threads = 0;
  for (int i = 0; i < pfe.cal().ppes_per_pfe; ++i) {
    instructions += pfe.ppe(i).instructions_issued();
    threads += pfe.ppe(i).threads_started();
  }
  counts.emplace_back("pfe0.instructions", instructions);
  counts.emplace_back("pfe0.threads_started", threads);
  for (int k = 0; k < pfe.cal().sms_banks; ++k) {
    char name[48];
    std::snprintf(name, sizeof(name), "pfe0.sms.bank%02d.busy_cycles", k);
    counts.emplace_back(name, pfe.sms().busy_cycles(k));
  }

  std::ostringstream os;
  telem_.metrics.write_json(os, sim_.now());
  const std::string json = os.str();
  for (const auto& [name, accessor] : counts) {
    EXPECT_NE(json.find('"' + name + '"'), std::string::npos) << name;
    EXPECT_EQ(telem_.metrics.counter_value(name), accessor) << name;
  }
  for (const char* name : {"router.no_route_drops", "router.stalls",
                           "router.stall_held_frames", "router.kills",
                           "router.kill_dropped_frames"}) {
    EXPECT_EQ(telem_.metrics.counter_value(name), 1u) << name;
  }
  EXPECT_EQ(instructions, pfe.instructions_issued());
}

TEST_F(TwoPacketRun, TraceIsWellFormedChromeJsonWithExpectedSpans) {
  Run();
  std::ostringstream os;
  telem_.tracer.write_json(os);
  const std::string json = os.str();
  EXPECT_TRUE(json_balanced(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  // Row metadata: the PFE process and its hardware-block rows.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"pfe0\""), std::string::npos);
  EXPECT_NE(json.find("\"dispatch\""), std::string::npos);
  EXPECT_NE(json.find("\"reorder\""), std::string::npos);
  EXPECT_NE(json.find("\"crossbar\""), std::string::npos);
  EXPECT_NE(json.find("\"mqss\""), std::string::npos);
  EXPECT_NE(json.find("\"sms.bank00\""), std::string::npos);
  EXPECT_NE(json.find("\"ppe00.t00\""), std::string::npos);
  // Per-PPE-thread spans: the packet lifetime and the FIB-read stall.
  EXPECT_NE(json.find("\"name\": \"packet\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"stall:read\""), std::string::npos);
  // SMS bank service span + busy-cycles counter samples.
  EXPECT_NE(json.find("\"name\": \"read\""), std::string::npos);
  EXPECT_NE(json.find("\"busy_cycles\""), std::string::npos);
  // Complete events carry ph X with microsecond timestamps.
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
}

TEST(RouterTelemetry, UnobservedRouterStaysDisabledAndCorrect) {
  // The telemetry-less constructor must behave identically (the shared
  // disabled bundle; no metric cells allocated).
  sim::Simulator sim;
  trio::Router router(sim, trio::Calibration{}, 1, 4);
  EXPECT_FALSE(router.metrics().enabled());
  EXPECT_FALSE(router.tracer().enabled());
  EXPECT_EQ(router.metrics().metric_count(), 0u);
  const std::uint32_t nh =
      router.forwarding().add_nexthop(trio::NexthopUnicast{1, {}});
  router.forwarding().add_route(net::Ipv4Addr::from_string("198.51.100.1"), 32,
                                nh);
  int forwarded = 0;
  router.attach_port_sink(1, [&](net::PacketPtr) { ++forwarded; });
  std::vector<std::uint8_t> payload(64, 1);
  const auto frame = net::build_udp_frame(
      {0x02, 0, 0, 0, 0, 1}, {0x02, 0, 0, 0, 0, 2},
      net::Ipv4Addr::from_string("192.0.2.1"),
      net::Ipv4Addr::from_string("198.51.100.1"), 4000, 4001, payload);
  router.receive(net::Packet::make(frame), 0);
  sim.run();
  EXPECT_EQ(forwarded, 1);
  EXPECT_EQ(router.metrics().metric_count(), 0u);
}

}  // namespace
