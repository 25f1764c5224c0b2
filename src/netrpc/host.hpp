// NetRPC end hosts: the client library and the replicated RPC server.
//
// The client issues three verbs. `call()` fans one request out to every
// replica; in a Trio deployment the aggregating PFE merges the replies
// in-flight and the client sees exactly one MERGED_RESP — but the same
// client also works with no in-network support (each RPC_RESP arrives
// individually and is merged host-side), which is itself the
// "end-host-only" baseline fig_netrpc compares against. `get()` goes to
// the key's home replica and may come back flagged kFlagCached when the
// PFE answered it without the server ever seeing it. `put()` writes the
// home replica; the PFE invalidates its cached copy in transit.
//
// The server is deliberately simple — a key/value map plus a
// deterministic compute function for fan-out RPCs — with the same fault
// surface as TrioMlWorker (crash/restart, configurable service time,
// stall_for-based straggling) so the existing chaos DSL drives it.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/link.hpp"
#include "sim/simulator.hpp"
#include "telemetry/metrics.hpp"
#include "netrpc/wire_format.hpp"

namespace netrpc {

struct GetResult {
  std::uint64_t key = 0;
  std::vector<std::uint32_t> values;
  bool cached = false;  // answered by the PFE's hot-key cache
  bool lost = false;    // retry budget exhausted; values are zero
  sim::Duration latency;
};

struct PutResult {
  std::uint64_t key = 0;
  bool lost = false;  // retry budget exhausted; the write may not have landed
  sim::Duration latency;
};

struct CallResult {
  std::uint32_t rpc_id = 0;
  std::vector<std::uint32_t> values;  // merged under the service's policy
  std::uint8_t server_cnt = 0;        // replicas that contributed
  bool degraded = false;              // merged before full fan-in (aging)
  bool host_merged = false;           // no in-network merge; client reduced
  sim::Duration latency;
};

class RpcClient : public net::Node {
 public:
  struct Config {
    std::uint8_t tenant = 1;
    std::uint8_t client_id = 0;
    net::Ipv4Addr ip;
    net::MacAddr mac{0x02, 0, 0, 0, 0, 1};
    std::vector<net::Ipv4Addr> server_ips;  // indexed by server_id
    std::vector<net::MacAddr> server_macs;
    MergePolicy policy = MergePolicy::kSum;
    std::uint16_t value_words = 8;
    /// Outstanding fan-out calls; must stay within the PFE's per-client
    /// pending slots (rpc_id & 15 indexes the slot — the client skips
    /// call ids whose slot is still held by a live call, so two live
    /// calls never merge into each other).
    std::uint32_t window = 8;
    std::uint16_t udp_src_port = 12100;
    /// GET/PUT loss recovery (fan-out calls are never retransmitted —
    /// a duplicate would double-merge; the PFE's aging scan completes
    /// stalled calls degraded instead).
    bool retransmit = false;
    sim::Duration retransmit_timeout = sim::Duration::millis(1);
    std::uint32_t retry_budget = 4;
    /// Fan-out call give-up: a call whose merged response never arrives
    /// (calls are not retransmitted, and a lost MERGED_RESP is not
    /// resent) completes locally after this deadline — degraded, with
    /// whatever replica replies did arrive. Zero disables.
    sim::Duration call_timeout = sim::Duration::millis(5);
  };

  RpcClient(sim::Simulator& simulator, Config config, net::LinkEndpoint& tx);

  /// Fan-out RPC: one request per replica, one merged response back.
  /// Throws if the window is full (poll `can_call()` first).
  void call(const std::vector<std::uint32_t>& args,
            std::function<void(CallResult)> done);
  bool can_call() const { return calls_.size() < config_.window; }

  void get(std::uint64_t user_key, std::function<void(GetResult)> done);
  void put(std::uint64_t user_key, const std::vector<std::uint32_t>& values,
           std::function<void(PutResult)> done);

  // --- net::Node ----------------------------------------------------------
  void receive(net::PacketPtr pkt, int port) override;
  std::string name() const override {
    return "rpc-client-" + std::to_string(config_.client_id);
  }

  // --- Fault hooks (src/faults/) ------------------------------------------
  /// All in-flight operations and their callbacks vanish; received
  /// frames are ignored until restart().
  void crash();
  void restart() {
    if (!crashed_) return;
    crashed_ = false;
    if (on_restart_) on_restart_();
  }
  bool crashed() const { return crashed_; }
  std::uint64_t epoch() const { return epoch_; }
  /// Invoked from restart(): a crash wiped every in-flight operation and
  /// its callback, so a callback-chained driver must re-prime its loop
  /// here or stall forever.
  void set_restart_hook(std::function<void()> hook) {
    on_restart_ = std::move(hook);
  }

  void instrument(telemetry::Registry& registry, std::string_view prefix) {
    registry.bind(retransmissions_, prefix, "retransmits");
    registry.bind(degraded_calls_, prefix, "degraded_calls");
    registry.bind(cached_gets_, prefix, "cached_gets");
    registry.bind(crashes_, prefix, "crashes");
  }

  // --- Statistics ---------------------------------------------------------
  std::uint64_t calls_completed() const { return calls_completed_; }
  std::uint64_t degraded_calls() const { return degraded_calls_.value(); }
  std::uint64_t host_merged_calls() const { return host_merged_calls_; }
  std::uint64_t cached_gets() const { return cached_gets_.value(); }
  std::uint64_t retransmissions() const { return retransmissions_.value(); }
  std::uint64_t packets_sent() const { return packets_sent_; }
  const Config& config() const { return config_; }

 private:
  struct PendingCall {
    sim::Time start;
    std::function<void(CallResult)> done;
    // Host-side merge state, used only when raw RPC_RESPs arrive
    // (no in-network merge on the path).
    std::vector<std::uint32_t> acc;
    std::vector<std::uint32_t> counts;  // majority: candidate counts
    std::uint8_t arrived = 0;
    sim::EventId timer;  // give-up deadline (config_.call_timeout)
  };
  struct PendingKeyOp {
    sim::Time start;
    std::uint64_t user_key = 0;
    std::function<void(GetResult)> get_done;
    std::function<void(PutResult)> put_done;
    std::vector<std::uint32_t> put_values;  // retransmit payload
    std::uint32_t retries = 0;
    sim::EventId timer;
  };

  void send_request(Op op, std::uint8_t server_id, std::uint32_t rpc_id,
                    std::uint64_t key, const std::vector<std::uint32_t>& vals);
  bool call_timeout_enabled() const { return config_.call_timeout.ns() > 0; }
  /// call_timeout fired: complete the call locally, degraded.
  void give_up_call(std::uint32_t rpc_id, std::uint64_t epoch);
  /// Next fan-out call id: monotone, and never congruent mod the PFE's
  /// pending slots with any live call (the slot the id hashes to must be
  /// free, or the aggregating PFE would merge two calls into each other).
  std::uint32_t alloc_call_id();
  void arm_retransmit(std::uint32_t rpc_id);
  void host_merge(PendingCall& call, const net::Buffer& frame);
  std::uint8_t home_server(std::uint64_t user_key) const {
    return static_cast<std::uint8_t>(user_key % config_.server_ips.size());
  }

  sim::Simulator& sim_;
  Config config_;
  net::LinkEndpoint& tx_;
  // Fan-out calls and GET/PUT key ops draw from separate id sequences:
  // only call ids index the PFE's pending-merge slots (mod 16), so a
  // burst of key ops between two call()s must not advance the call ids
  // onto an occupied slot. Responses demux by opcode, so overlap between
  // the two sequences is harmless.
  std::uint32_t next_call_id_ = 1;
  std::uint32_t next_key_id_ = 1;
  std::unordered_map<std::uint32_t, PendingCall> calls_;
  std::unordered_map<std::uint32_t, PendingKeyOp> key_ops_;
  bool crashed_ = false;
  std::uint64_t epoch_ = 0;
  std::function<void()> on_restart_;

  std::uint64_t calls_completed_ = 0;
  telemetry::Counter degraded_calls_;
  std::uint64_t host_merged_calls_ = 0;
  telemetry::Counter cached_gets_;
  telemetry::Counter retransmissions_;
  std::uint64_t packets_sent_ = 0;
  telemetry::Counter crashes_;
};

class RpcServer : public net::Node {
 public:
  struct Config {
    std::uint8_t tenant = 1;
    std::uint8_t server_id = 0;
    net::Ipv4Addr ip;
    net::MacAddr mac{0x02, 0, 0, 0, 0, 0x10};
    std::uint16_t value_words = 8;
    /// Base service time applied to every response (request processing).
    sim::Duration service_time = sim::Duration::micros(2);
  };

  RpcServer(sim::Simulator& simulator, Config config, net::LinkEndpoint& tx);

  /// Seeds/overwrites a key host-side (no packets).
  void preload(std::uint64_t user_key, std::vector<std::uint32_t> values);
  bool has_key(std::uint64_t user_key) const {
    return store_.count(user_key) != 0;
  }

  // --- net::Node ----------------------------------------------------------
  void receive(net::PacketPtr pkt, int port) override;
  std::string name() const override {
    return "rpc-server-" + std::to_string(config_.server_id);
  }

  /// Straggling: responses scheduled while stalled are delayed until the
  /// stall lifts (in-flight responses still fly).
  void stall_for(sim::Duration d);
  void set_service_time(sim::Duration d) { config_.service_time = d; }

  // --- Fault hooks (src/faults/) ------------------------------------------
  /// The server goes silent: requests are dropped, scheduled responses
  /// from before the crash are suppressed. State (the store) survives —
  /// this models a process hang / link partition, the case the PFE's
  /// degraded merge completion exists for.
  void crash();
  void restart() { crashed_ = false; }
  bool crashed() const { return crashed_; }

  // --- Statistics ---------------------------------------------------------
  std::uint64_t gets_served() const { return gets_served_; }
  std::uint64_t puts_served() const { return puts_served_; }
  std::uint64_t calls_served() const { return calls_served_; }
  const Config& config() const { return config_; }

 private:
  void respond(const NetRpcHeader& req_hdr, const net::Buffer& req_frame,
               Op op, const std::vector<std::uint32_t>& values);
  /// Deterministic per-replica RPC work function: what this replica
  /// contributes to the merge for a given rpc_id and argument vector.
  std::vector<std::uint32_t> compute(std::uint32_t rpc_id,
                                     const NetRpcHeader& hdr,
                                     const net::Buffer& frame) const;

  sim::Simulator& sim_;
  Config config_;
  net::LinkEndpoint& tx_;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> store_;
  sim::Time stalled_until_;
  bool crashed_ = false;
  std::uint64_t crash_epoch_ = 0;

  std::uint64_t gets_served_ = 0;
  std::uint64_t puts_served_ = 0;
  std::uint64_t calls_served_ = 0;
};

}  // namespace netrpc
