// A Trio-ML end-host worker: streams a model's gradient blocks to the
// aggregator with a bounded window of outstanding packets (paper §4
// "Window-based streaming aggregation"), receives multicast Result
// packets, recognises degraded (partial) results and rescales by src_cnt
// (§5), and reports per-block latency.
//
// Matches the testbed configuration of §6.1: DPDK-style UDP send path,
// 1024 gradients per packet and window 4096 by default, optional 1 ms
// retransmission (disabled in the paper's straggler experiments).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/link.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "trioml/wire_format.hpp"

namespace trioml {

struct AllreduceResult {
  /// Per-gradient average over the sources that contributed.
  std::vector<float> grads;
  std::uint64_t degraded_blocks = 0;
  std::uint64_t blocks = 0;
  /// Blocks abandoned by the give-up path (docs/faults.md "Degraded
  /// completion"): every retry budget exhausted and no result within the
  /// grace window — the aggregation path is durably gone (e.g. the
  /// worker's leaf router killed with no standby). Their gradients stay
  /// zero; > 0 marks the result as a degraded completion.
  std::uint64_t abandoned_blocks = 0;
  sim::Time start;
  sim::Time finish;
};

class TrioMlWorker : public net::Node {
 public:
  /// Retransmit backoff (Config::retransmit_backoff): each retry doubles
  /// the timeout, then a uniform ±20% jitter applies.
  static constexpr double kBackoffFactor = 2.0;
  static constexpr double kBackoffJitter = 0.2;

  struct Config {
    std::uint8_t job_id = 1;
    std::uint8_t src_id = 0;
    net::Ipv4Addr ip;
    net::MacAddr mac{0x02, 0, 0, 0, 0, 1};
    net::Ipv4Addr agg_ip;            // aggregation destination address
    net::MacAddr agg_mac{0x02, 0, 0, 0, 0, 0xfe};
    std::uint16_t udp_src_port = 20000;
    std::uint32_t window = 4096;     // outstanding packets (paper default)
    std::uint16_t grads_per_packet = kMaxGradsPerPacket;
    std::uint8_t expected_sources = 0;  // full-aggregation contributor count
    bool retransmit = false;            // disabled in the paper's evaluation
    sim::Duration retransmit_timeout = sim::Duration::millis(1);

    // --- Hardened loss recovery (docs/faults.md) -------------------------
    /// Per-block retransmit budget; 0 = unbounded. When a block exhausts
    /// its budget the worker stops resending it and waits for the aged
    /// (degraded) Result — graceful degradation instead of a retransmit
    /// storm against a dead aggregator or crashed peer.
    std::uint32_t retry_budget = 0;
    /// Exponential backoff on consecutive retransmits of the same block:
    /// timeout_k = min(retransmit_timeout * kBackoffFactor^k, backoff_max),
    /// jittered by ±kBackoffJitter (drawn from the worker's sim::Rng,
    /// seeded from src_id). Backoff makes the "retransmit period must
    /// exceed the aging window" constraint self-resolving: a few retries
    /// in, the interval outgrows any aging window and orphaned upstream
    /// blocks can expire.
    bool retransmit_backoff = false;
    sim::Duration backoff_max = sim::Duration::millis(50);
    /// Degraded-completion grace (docs/faults.md): once *every*
    /// outstanding block has exhausted its retry budget and nothing more
    /// can be sent, wait this long for a (possibly aged) Result, then
    /// abandon the remaining blocks and complete degraded instead of
    /// wedging until the run deadline. Zero = disabled (legacy: wait
    /// forever). Requires a nonzero retry_budget to ever trigger.
    sim::Duration give_up_grace = sim::Duration::zero();
  };

  TrioMlWorker(sim::Simulator& simulator, Config config,
               net::LinkEndpoint& tx);

  /// Starts an allreduce over quantized gradients; `done` fires when every
  /// block's result arrived.
  void start_allreduce(std::vector<std::uint32_t> grads, std::uint16_t gen_id,
                       std::function<void(AllreduceResult)> done);

  /// Convenience float API: quantizes, allreduces, dequantizes+averages.
  void start_allreduce_float(const std::vector<float>& grads,
                             std::uint16_t gen_id,
                             std::function<void(AllreduceResult)> done);

  // --- net::Node (result packets arrive here) -----------------------------
  void receive(net::PacketPtr pkt, int port) override;
  std::string name() const override {
    return "worker-" + std::to_string(config_.src_id);
  }

  /// Artificial transmission stall: the worker pauses sending for `d`
  /// (used by the straggler generator; in-flight packets still fly).
  void stall_for(sim::Duration d);

  /// Turns on loss recovery: unanswered blocks are retransmitted after
  /// `timeout` (the aggregator recognises duplicates by src_id — §4).
  void enable_retransmit(sim::Duration timeout) {
    config_.retransmit = true;
    config_.retransmit_timeout = timeout;
  }

  /// Loss recovery hardened for injected faults (docs/faults.md): fixed
  /// initial timeout, then bounded exponential backoff with jitter and a
  /// per-block retry budget.
  void enable_hardened_retransmit(sim::Duration initial_timeout,
                                  std::uint32_t retry_budget,
                                  sim::Duration backoff_max) {
    enable_retransmit(initial_timeout);
    config_.retry_budget = retry_budget;
    config_.retransmit_backoff = true;
    config_.backoff_max = backoff_max;
  }

  /// Turns on the degraded-completion path (Config::give_up_grace): a
  /// worker whose every remaining block has exhausted its retry budget
  /// abandons them after `grace` and completes with a partial result
  /// rather than wedging against a durably-dead aggregation path.
  void enable_give_up(sim::Duration grace) { config_.give_up_grace = grace; }

  /// Reseeds the backoff-jitter stream (trio-run --seed plumbing).
  void reseed_jitter(std::uint64_t seed) { rng_.reseed(seed); }

  // --- Fault hooks (src/faults/) -----------------------------------------
  /// Host crash: all worker-side allreduce state vanishes — outstanding
  /// blocks, retransmit timers and the in-flight completion callback (the
  /// allreduce is abandoned; run drivers count the worker as unfinished).
  /// In-flight frames still fly; a crashed worker ignores everything it
  /// receives and sends nothing.
  void crash();
  /// Restart after a crash: the worker comes back cold (no allreduce in
  /// progress) and may start a fresh allreduce.
  void restart() { crashed_ = false; }
  bool crashed() const { return crashed_; }

  /// Binds the worker's recovery counts as `<prefix>retransmits`,
  /// `<prefix>backoff_rearms`, `<prefix>retry_budget_exhausted` and
  /// `<prefix>crashes`. Same prefix across workers = shared tier totals,
  /// like LinkEndpoint::instrument.
  void instrument(telemetry::Registry& registry, std::string_view prefix) {
    registry.bind(retransmissions_, prefix, "retransmits");
    registry.bind(backoff_rearms_, prefix, "backoff_rearms");
    registry.bind(retry_budget_exhausted_, prefix, "retry_budget_exhausted");
    registry.bind(crashes_, prefix, "crashes");
  }

  bool busy() const { return done_ != nullptr; }
  const Config& config() const { return config_; }

  /// Allreduce incarnation counter: bumped by start_allreduce() and
  /// crash(), captured by every timer/pump callback the worker schedules.
  /// A callback whose epoch no longer matches belongs to a dead
  /// incarnation and must not touch (re-created) block state — see the
  /// crash-teardown regression in tests/recovery_test.cpp.
  std::uint64_t allreduce_epoch() const { return epoch_; }

  /// §5 advanced mitigation: straggler notifications received from the
  /// classifier timer threads.
  struct StragglerNotice {
    std::uint8_t src = 0;
    bool permanent = false;
    std::uint8_t consecutive_windows = 0;
    sim::Time at;
  };
  const std::vector<StragglerNotice>& straggler_notices() const {
    return straggler_notices_;
  }

  // --- Statistics ----------------------------------------------------------
  sim::Samples& block_latency_us() { return block_latency_us_; }
  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t results_received() const { return results_received_; }
  std::uint64_t degraded_results() const { return degraded_results_; }
  /// Result frames dropped because they are shorter than their grad_cnt
  /// gradients (a corrupted count); their block stays outstanding.
  std::uint64_t malformed_results() const { return malformed_results_; }
  std::uint64_t retransmissions() const { return retransmissions_.value(); }
  std::uint64_t backoff_rearms() const { return backoff_rearms_.value(); }
  std::uint64_t retry_budget_exhausted() const {
    return retry_budget_exhausted_.value();
  }
  std::uint64_t crashes() const { return crashes_.value(); }
  /// Allreduces completed degraded by the give-up path, and the blocks
  /// they abandoned (diagnostics for trio-run / the vigil invariants).
  std::uint64_t abandoned_allreduces() const { return abandoned_allreduces_; }
  std::uint64_t abandoned_blocks() const { return abandoned_blocks_; }
  /// Blocks still outstanding (sent, no result). Zero whenever the worker
  /// is idle — the vigil no-orphan-timer invariant (docs/vigil.md).
  std::size_t outstanding_blocks() const { return outstanding_.size(); }

 private:
  struct Outstanding {
    sim::Time sent;
    std::uint16_t grad_cnt;
    std::uint32_t retries = 0;
    bool exhausted = false;  // retry budget spent; waiting on aging
    sim::EventId retransmit_timer;
  };

  void pump();
  void send_block(std::uint32_t block_id, bool is_retransmit);
  void arm_retransmit(std::uint32_t block_id, Outstanding& out);
  void on_result(const TrioMlHeader& hdr, const net::Buffer& frame);
  void complete();
  void maybe_arm_give_up();
  void give_up();

  sim::Simulator& sim_;
  Config config_;
  net::LinkEndpoint& tx_;

  std::vector<std::uint32_t> grads_;
  std::uint16_t gen_id_ = 0;
  std::function<void(AllreduceResult)> done_;
  AllreduceResult result_;
  std::uint32_t num_blocks_ = 0;
  std::uint32_t next_block_ = 0;
  std::uint32_t completed_blocks_ = 0;
  std::unordered_map<std::uint32_t, Outstanding> outstanding_;
  sim::Time stalled_until_;
  bool pump_scheduled_ = false;
  std::uint64_t epoch_ = 0;
  std::size_t exhausted_blocks_ = 0;
  bool give_up_armed_ = false;
  sim::EventId give_up_timer_{};

  bool crashed_ = false;
  sim::Rng rng_;  // backoff jitter (per-worker deterministic stream)

  std::vector<StragglerNotice> straggler_notices_;
  sim::Samples block_latency_us_;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t results_received_ = 0;
  std::uint64_t degraded_results_ = 0;
  std::uint64_t malformed_results_ = 0;
  telemetry::Counter retransmissions_;
  telemetry::Counter backoff_rearms_;
  telemetry::Counter retry_budget_exhausted_;
  telemetry::Counter crashes_;
  std::uint64_t abandoned_allreduces_ = 0;
  std::uint64_t abandoned_blocks_ = 0;
};

}  // namespace trioml
