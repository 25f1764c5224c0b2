#include "netrpc/host.hpp"

#include <algorithm>
#include <stdexcept>

#include "netrpc/layout.hpp"

namespace netrpc {

// ---------------------------------------------------------------------------
// RpcClient

RpcClient::RpcClient(sim::Simulator& simulator, Config config,
                     net::LinkEndpoint& tx)
    : sim_(simulator), config_(std::move(config)), tx_(tx) {
  if (config_.server_ips.empty() ||
      config_.server_ips.size() != config_.server_macs.size()) {
    throw std::invalid_argument("RpcClient: bad server address tables");
  }
  if (config_.value_words == 0 || config_.value_words > kMaxValueWords) {
    throw std::invalid_argument("RpcClient: value_words out of range");
  }
  if (config_.window == 0 || config_.window > 16) {
    throw std::invalid_argument(
        "RpcClient: window must be 1..16 (PFE pending slots)");
  }
}

void RpcClient::send_request(Op op, std::uint8_t server_id,
                             std::uint32_t rpc_id, std::uint64_t key,
                             const std::vector<std::uint32_t>& vals) {
  NetRpcHeader hdr;
  hdr.op = op;
  hdr.tenant = config_.tenant;
  hdr.client_id = config_.client_id;
  hdr.server_id = server_id;
  hdr.policy = config_.policy;
  hdr.server_cnt = static_cast<std::uint8_t>(config_.server_ips.size());
  hdr.rpc_id = rpc_id;
  hdr.key = key;
  net::Buffer frame = build_netrpc_frame(
      config_.mac, config_.server_macs[server_id], config_.ip,
      config_.server_ips[server_id], config_.udp_src_port, kRequestUdpPort,
      hdr, vals, config_.value_words);
  ++packets_sent_;
  tx_.send(net::Packet::make(std::move(frame)));
}

std::uint32_t RpcClient::alloc_call_id() {
  // With window <= kPendingSlotsPerClient, at most window-1 slots are
  // held when a call is admitted, so a free slot exists within the next
  // kPendingSlotsPerClient consecutive ids. Skipped ids are simply never
  // used; the sequence stays monotone (the datapath's stale-owner test
  // relies on that).
  for (std::size_t tries = 0; tries < kPendingSlotsPerClient; ++tries) {
    const std::uint32_t id = next_call_id_++;
    const std::uint32_t slot = id % kPendingSlotsPerClient;
    bool busy = false;
    for (const auto& [live_id, call] : calls_) {
      if (live_id % kPendingSlotsPerClient == slot) {
        busy = true;
        break;
      }
    }
    if (!busy) return id;
  }
  throw std::logic_error("RpcClient: no free pending slot");  // unreachable
}

void RpcClient::call(const std::vector<std::uint32_t>& args,
                     std::function<void(CallResult)> done) {
  if (crashed_) throw std::logic_error("RpcClient: crashed");
  if (!can_call()) throw std::logic_error("RpcClient: call window full");
  const std::uint32_t rpc_id = alloc_call_id();
  PendingCall& call = calls_[rpc_id];
  call.start = sim_.now();
  call.done = std::move(done);
  if (call_timeout_enabled()) {
    call.timer = sim_.schedule_in(
        config_.call_timeout,
        [this, rpc_id, epoch = epoch_] { give_up_call(rpc_id, epoch); });
  }
  for (std::uint8_t s = 0; s < config_.server_ips.size(); ++s) {
    send_request(Op::kRpcReq, s, rpc_id,
                 make_key(config_.tenant, rpc_id), args);
  }
}

void RpcClient::give_up_call(std::uint32_t rpc_id, std::uint64_t epoch) {
  if (epoch != epoch_) return;  // a crash wiped this call
  auto it = calls_.find(rpc_id);
  if (it == calls_.end()) return;
  // The merged response is gone for good — fan-out calls are never
  // retransmitted, and the PFE sends its (possibly aged/degraded) merge
  // exactly once. Complete locally with whatever replica replies did
  // arrive so the caller's closed loop keeps making progress.
  CallResult res;
  res.rpc_id = rpc_id;
  res.server_cnt = it->second.arrived;
  res.degraded = true;
  res.host_merged = it->second.arrived > 0;
  res.latency = sim_.now() - it->second.start;
  res.values = std::move(it->second.acc);
  res.values.resize(config_.value_words);
  auto done = std::move(it->second.done);
  calls_.erase(it);
  ++calls_completed_;
  degraded_calls_.inc();
  if (done) done(std::move(res));
}

void RpcClient::get(std::uint64_t user_key,
                    std::function<void(GetResult)> done) {
  if (crashed_) throw std::logic_error("RpcClient: crashed");
  const std::uint32_t rpc_id = next_key_id_++;
  PendingKeyOp& op = key_ops_[rpc_id];
  op.start = sim_.now();
  op.user_key = user_key;
  op.get_done = std::move(done);
  send_request(Op::kGetReq, home_server(user_key), rpc_id,
               make_key(config_.tenant, user_key), {});
  if (config_.retransmit) arm_retransmit(rpc_id);
}

void RpcClient::put(std::uint64_t user_key,
                    const std::vector<std::uint32_t>& values,
                    std::function<void(PutResult)> done) {
  if (crashed_) throw std::logic_error("RpcClient: crashed");
  const std::uint32_t rpc_id = next_key_id_++;
  PendingKeyOp& op = key_ops_[rpc_id];
  op.start = sim_.now();
  op.user_key = user_key;
  op.put_done = std::move(done);
  op.put_values = values;
  send_request(Op::kPutReq, home_server(user_key), rpc_id,
               make_key(config_.tenant, user_key), values);
  if (config_.retransmit) arm_retransmit(rpc_id);
}

void RpcClient::arm_retransmit(std::uint32_t rpc_id) {
  auto it = key_ops_.find(rpc_id);
  if (it == key_ops_.end()) return;
  it->second.timer = sim_.schedule_in(
      config_.retransmit_timeout, [this, rpc_id, epoch = epoch_] {
        if (epoch != epoch_) return;
        auto it = key_ops_.find(rpc_id);
        if (it == key_ops_.end()) return;
        PendingKeyOp& op = it->second;
        if (++op.retries > config_.retry_budget) {
          // Out of retries: complete the op as lost (zero values) rather
          // than vanishing — a caller chaining its next op off the
          // callback would otherwise stall forever.
          if (op.get_done) {
            GetResult res;
            res.key = op.user_key;
            res.lost = true;
            res.latency = sim_.now() - op.start;
            res.values.resize(config_.value_words);
            auto done = std::move(op.get_done);
            key_ops_.erase(it);
            done(std::move(res));
          } else {
            PutResult res;
            res.key = op.user_key;
            res.lost = true;
            res.latency = sim_.now() - op.start;
            auto done = std::move(op.put_done);
            key_ops_.erase(it);
            done(std::move(res));
          }
          return;
        }
        retransmissions_.inc();
        const std::uint64_t key = make_key(config_.tenant, op.user_key);
        if (op.get_done) {
          send_request(Op::kGetReq, home_server(op.user_key), rpc_id, key, {});
        } else {
          send_request(Op::kPutReq, home_server(op.user_key), rpc_id, key,
                       op.put_values);
        }
        arm_retransmit(rpc_id);
      });
}

void RpcClient::host_merge(PendingCall& call, const net::Buffer& frame) {
  const std::size_t n = config_.value_words;
  if (call.acc.empty()) {
    call.acc.assign(n, config_.policy == MergePolicy::kMin ? 0xffffffffu : 0u);
    if (config_.policy == MergePolicy::kMajority) call.counts.assign(n, 0);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t v = read_value(frame, i);
    switch (config_.policy) {
      case MergePolicy::kSum:
        call.acc[i] += v;
        break;
      case MergePolicy::kMin:
        call.acc[i] = std::min(call.acc[i], v);
        break;
      case MergePolicy::kMajority:  // Boyer-Moore, same as kVoteVec32
        if (call.counts[i] == 0) {
          call.acc[i] = v;
          call.counts[i] = 1;
        } else if (call.acc[i] == v) {
          ++call.counts[i];
        } else {
          --call.counts[i];
        }
        break;
    }
  }
  ++call.arrived;
}

void RpcClient::receive(net::PacketPtr pkt, int /*port*/) {
  if (crashed_) return;
  const net::Buffer& frame = pkt->frame();
  if (!is_netrpc_frame(frame)) return;
  const NetRpcHeader hdr = NetRpcHeader::parse(frame, kNetRpcHdrOff);
  if (hdr.tenant != config_.tenant) return;

  switch (hdr.op) {
    case Op::kMergedResp: {
      auto it = calls_.find(hdr.rpc_id);
      if (it == calls_.end()) return;  // duplicate / stale
      CallResult res;
      res.rpc_id = hdr.rpc_id;
      res.server_cnt = hdr.server_cnt;
      res.degraded = (hdr.flags & kFlagDegraded) != 0;
      res.latency = sim_.now() - it->second.start;
      res.values.resize(config_.value_words);
      for (std::size_t i = 0; i < res.values.size(); ++i) {
        res.values[i] = read_value(frame, i);
      }
      sim_.cancel(it->second.timer);
      auto done = std::move(it->second.done);
      calls_.erase(it);
      ++calls_completed_;
      if (res.degraded) {
        degraded_calls_.inc();
      }
      if (done) done(std::move(res));
      return;
    }

    case Op::kRpcResp: {
      // No merge on the path: reduce host-side, complete at full fan-in.
      auto it = calls_.find(hdr.rpc_id);
      if (it == calls_.end()) return;
      host_merge(it->second, frame);
      if (it->second.arrived < config_.server_ips.size()) return;
      CallResult res;
      res.rpc_id = hdr.rpc_id;
      res.server_cnt = it->second.arrived;
      res.host_merged = true;
      res.latency = sim_.now() - it->second.start;
      res.values = std::move(it->second.acc);
      sim_.cancel(it->second.timer);
      auto done = std::move(it->second.done);
      calls_.erase(it);
      ++calls_completed_;
      ++host_merged_calls_;
      if (done) done(std::move(res));
      return;
    }

    case Op::kGetResp: {
      auto it = key_ops_.find(hdr.rpc_id);
      if (it == key_ops_.end() || !it->second.get_done) return;
      GetResult res;
      res.key = it->second.user_key;
      res.cached = (hdr.flags & kFlagCached) != 0;
      res.latency = sim_.now() - it->second.start;
      res.values.resize(config_.value_words);
      for (std::size_t i = 0; i < res.values.size(); ++i) {
        res.values[i] = read_value(frame, i);
      }
      sim_.cancel(it->second.timer);
      auto done = std::move(it->second.get_done);
      key_ops_.erase(it);
      if (res.cached) cached_gets_.inc();
      if (done) done(std::move(res));
      return;
    }

    case Op::kPutResp: {
      auto it = key_ops_.find(hdr.rpc_id);
      if (it == key_ops_.end() || !it->second.put_done) return;
      PutResult res;
      res.key = it->second.user_key;
      res.latency = sim_.now() - it->second.start;
      sim_.cancel(it->second.timer);
      auto done = std::move(it->second.put_done);
      key_ops_.erase(it);
      if (done) done(std::move(res));
      return;
    }

    default:
      return;  // requests are never addressed to a client
  }
}

void RpcClient::crash() {
  if (crashed_) return;
  crashed_ = true;
  ++epoch_;  // strands every armed retransmit timer
  crashes_.inc();
  for (auto& [id, op] : key_ops_) sim_.cancel(op.timer);
  for (auto& [id, call] : calls_) sim_.cancel(call.timer);
  calls_.clear();
  key_ops_.clear();
}

// ---------------------------------------------------------------------------
// RpcServer

RpcServer::RpcServer(sim::Simulator& simulator, Config config,
                     net::LinkEndpoint& tx)
    : sim_(simulator), config_(config), tx_(tx) {}

void RpcServer::preload(std::uint64_t user_key,
                        std::vector<std::uint32_t> values) {
  values.resize(config_.value_words);
  store_[user_key] = std::move(values);
}

void RpcServer::stall_for(sim::Duration d) {
  const sim::Time until = sim_.now() + d;
  if (until > stalled_until_) stalled_until_ = until;
}

void RpcServer::crash() {
  if (crashed_) return;
  crashed_ = true;
  ++crash_epoch_;  // suppresses responses scheduled before the crash
}

std::vector<std::uint32_t> RpcServer::compute(
    std::uint32_t rpc_id, const NetRpcHeader& hdr,
    const net::Buffer& frame) const {
  // Deterministic replica contribution: a mix of the request arguments,
  // the rpc id and this replica's id. Reproducible across runs, distinct
  // across replicas — exactly what sum/min/majority merges need to show
  // observable (and goldenable) results.
  std::vector<std::uint32_t> out(config_.value_words);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::uint32_t arg = read_value(frame, i);
    switch (hdr.policy) {
      case MergePolicy::kMajority:
        // Replicas agree unless their id differs in the low bit — a
        // majority of identical answers with a dissenting minority.
        out[i] = arg + std::uint32_t(rpc_id % 7) +
                 ((config_.server_id & 1u) != 0 ? 1000000u : 0u);
        break;
      default:
        out[i] = arg + std::uint32_t(i) + rpc_id % 97 +
                 std::uint32_t(config_.server_id) * 13;
        break;
    }
  }
  return out;
}

void RpcServer::respond(const NetRpcHeader& req_hdr,
                        const net::Buffer& req_frame, Op op,
                        const std::vector<std::uint32_t>& values) {
  const net::EthernetHeader eth = net::EthernetHeader::parse(req_frame, 0);
  const net::Ipv4Header ip =
      net::Ipv4Header::parse(req_frame, net::EthernetHeader::kSize);

  NetRpcHeader hdr = req_hdr;
  hdr.op = op;
  hdr.server_id = config_.server_id;
  net::Buffer frame =
      build_netrpc_frame(config_.mac, eth.src, config_.ip, ip.src,
                         kRequestUdpPort, kResponseUdpPort, hdr, values,
                         config_.value_words);

  sim::Time at = sim_.now() + config_.service_time;
  if (stalled_until_ > at) at = stalled_until_;
  sim_.schedule_at(at, [this, f = std::move(frame),
                        epoch = crash_epoch_]() mutable {
    if (crashed_ || epoch != crash_epoch_) return;
    tx_.send(net::Packet::make(std::move(f)));
  });
}

void RpcServer::receive(net::PacketPtr pkt, int /*port*/) {
  if (crashed_) return;
  const net::Buffer& frame = pkt->frame();
  if (!is_netrpc_frame(frame)) return;
  const NetRpcHeader hdr = NetRpcHeader::parse(frame, kNetRpcHdrOff);
  if (hdr.tenant != config_.tenant) return;
  const std::uint64_t user_key = user_key_of(hdr.key);

  switch (hdr.op) {
    case Op::kGetReq: {
      ++gets_served_;
      auto it = store_.find(user_key);
      static const std::vector<std::uint32_t> kEmpty;
      respond(hdr, frame, Op::kGetResp,
              it != store_.end() ? it->second : kEmpty);
      return;
    }
    case Op::kPutReq: {
      ++puts_served_;
      std::vector<std::uint32_t> values(config_.value_words);
      for (std::size_t i = 0; i < values.size(); ++i) {
        values[i] = read_value(frame, i);
      }
      store_[user_key] = values;
      respond(hdr, frame, Op::kPutResp, values);
      return;
    }
    case Op::kRpcReq: {
      ++calls_served_;
      respond(hdr, frame, Op::kRpcResp, compute(hdr.rpc_id, hdr, frame));
      return;
    }
    default:
      return;  // responses are never addressed to a server
  }
}

}  // namespace netrpc
