#include "netrpc/app.hpp"

#include <stdexcept>

#include "telemetry/trace.hpp"
#include "trio/router.hpp"

namespace netrpc {

namespace {

std::uint64_t le64(std::span<const std::uint8_t> v, std::size_t off) {
  std::uint64_t x = 0;
  for (int i = 0; i < 8; ++i) x |= std::uint64_t(v[off + i]) << (8 * i);
  return x;
}

std::uint32_t le32(std::span<const std::uint8_t> v, std::size_t off) {
  return std::uint32_t(v[off]) | std::uint32_t(v[off + 1]) << 8 |
         std::uint32_t(v[off + 2]) << 16 | std::uint32_t(v[off + 3]) << 24;
}

/// The merge buffer's identity element, policy-dependent: what the control
/// plane presets at setup and every reset restores (the datapath's
/// SmsFill32 arms mirror this exactly).
std::vector<std::uint8_t> merge_preset_bytes(const ServiceConfig& cfg) {
  const std::size_t val_bytes = std::size_t(cfg.value_words) * 4;
  switch (cfg.policy) {
    case MergePolicy::kMin:
      return std::vector<std::uint8_t>(val_bytes, 0xff);
    case MergePolicy::kMajority:
      return std::vector<std::uint8_t>(2 * val_bytes, 0);
    case MergePolicy::kSum:
    default:
      return std::vector<std::uint8_t>(val_bytes, 0);
  }
}

/// Wraps the tenant's compiled datapath to record per-packet latency when
/// the thread ends (the microcode itself has no notion of wall time).
class NetRpcThread : public microcode::MicrocodeThread {
 public:
  NetRpcThread(NetRpcApp& app,
               std::shared_ptr<const microcode::CompiledProgram> program)
      : MicrocodeThread(std::move(program)), app_(app) {}

  trio::Action step(trio::ThreadContext& ctx) override {
    trio::Action a = MicrocodeThread::step(ctx);
    if (std::holds_alternative<trio::ActExit>(a) && !done_ &&
        ctx.packet != nullptr) {
      done_ = true;
      const sim::Time now = app_.pfe().router().simulator().now();
      const sim::Duration in_trio = now - ctx.packet->arrival_time();
      app_.pfe_latency_hist().record(in_trio.ns());
    }
    return a;
  }

 private:
  NetRpcApp& app_;
  bool done_ = false;
};

/// Walks every tenant's pending-merge slots; a slot whose arrival count
/// is nonzero and unchanged since the previous pass has stalled (server
/// crash, straggler past patience) — the partial merge is completed
/// *degraded*: emitted to the client with server_cnt = contributors and
/// the degraded flag, and the slot reset for reuse. This is the
/// run-to-completion capability the PISA baseline cannot express (no
/// timer-spawned threads), and the core of the fig_netrpc tail argument.
class PendingScanProgram : public trio::PpeProgram {
 public:
  explicit PendingScanProgram(NetRpcApp& app) : app_(app) {
    tenants_ = app.configured_tenants();
  }

  trio::Action step(trio::ThreadContext& ctx) override {
    if (!pending_.empty()) return pending_.pop_front();
    return do_step(ctx);
  }

 private:
  enum class State { kNextSlot, kMeta, kMerge };

  trio::Action do_step(trio::ThreadContext& ctx) {
    switch (state_) {
      case State::kNextSlot: {
        while (true) {
          if (ti_ >= tenants_.size()) return trio::ActExit{1};
          NetRpcApp::Service* svc = app_.service_mut(tenants_[ti_]);
          if (svc == nullptr) {  // removed since the pass began
            ++ti_;
            slot_ = 0;
            continue;
          }
          const std::size_t slots = svc->arrived_snapshot.size();
          if (slot_ >= slots) {
            ++ti_;
            slot_ = 0;
            continue;
          }
          trio::ActSyncXtxn rd;
          rd.req.op = trio::XtxnOp::kRead;
          rd.req.addr = svc->layout.pending_base + slot_ * kPendingSlotBytes;
          rd.req.len = 16;  // owner u64 + arrived u32 (+ pad)
          rd.instructions = 4;
          state_ = State::kMeta;
          return rd;
        }
      }

      case State::kMeta: {
        NetRpcApp::Service* svc = app_.service_mut(tenants_[ti_]);
        if (svc == nullptr) {  // torn down while the slot read was in flight
          ++ti_;
          slot_ = 0;
          state_ = State::kNextSlot;
          return trio::ActContinue{1};
        }
        owner_ = le64(ctx.reply.data, 0);
        arrived_ = le32(ctx.reply.data, 8);
        std::uint32_t& snap = svc->arrived_snapshot[slot_];
        state_ = State::kNextSlot;
        if (arrived_ == 0 || (owner_ & 1) != 0) {
          // Idle, or a done-marked slot mid-reset (the completing
          // thread's posted writes race this read): nothing to age.
          snap = 0;
          ++slot_;
          return trio::ActContinue{1};
        }
        if (arrived_ != snap) {  // still making progress; note and move on
          snap = arrived_;
          ++slot_;
          return trio::ActContinue{1};
        }
        if (arrived_ >= svc->config.server_cnt) {
          // A completed merge left a stale count behind (should not
          // happen — the datapath resets on completion); reclaim.
          queue_reset(*svc);
          ++app_.stats().pending_reset;
          snap = 0;
          ++slot_;
          return trio::ActContinue{1};
        }
        // Stalled partial merge: fetch the candidates plane and give up
        // on the missing servers.
        trio::ActSyncXtxn rd;
        rd.req.op = trio::XtxnOp::kRead;
        rd.req.addr = svc->layout.pending_base + slot_ * kPendingSlotBytes +
                      kPendingMergeOff;
        rd.req.len = std::size_t(svc->config.value_words) * 4;
        rd.instructions = 4;
        state_ = State::kMerge;
        return rd;
      }

      case State::kMerge: {
        NetRpcApp::Service* svc = app_.service_mut(tenants_[ti_]);
        if (svc == nullptr) {  // torn down between the meta and merge reads
          ++ti_;
          slot_ = 0;
          state_ = State::kNextSlot;
          return trio::ActContinue{1};
        }
        const ServiceConfig& cfg = svc->config;
        const auto client =
            static_cast<std::uint8_t>(slot_ / kPendingSlotsPerClient);

        std::vector<std::uint32_t> values(cfg.value_words);
        for (std::size_t i = 0; i < values.size(); ++i) {
          values[i] = le32(ctx.reply.data, i * 4);
        }
        NetRpcHeader hdr;
        hdr.op = Op::kMergedResp;
        hdr.tenant = cfg.tenant;
        hdr.client_id = client;
        hdr.policy = cfg.policy;
        hdr.flags = kFlagDegraded;
        hdr.server_cnt = static_cast<std::uint8_t>(arrived_);
        hdr.rpc_id = static_cast<std::uint32_t>(owner_ >> 1);
        net::MacAddr dst_mac = svc->service_mac;
        dst_mac[5] = static_cast<std::uint8_t>(client + 1);
        net::Buffer frame = build_netrpc_frame(
            svc->service_mac, dst_mac, svc->service_ip,
            svc->client_ips[client], kRequestUdpPort, kResponseUdpPort, hdr,
            values, cfg.value_words);

        queue_reset(*svc);
        trio::ActAsyncXtxn ctr;
        ctr.req.op = trio::XtxnOp::kCounterInc;
        ctr.req.addr = svc->layout.counter_addr(kCtrDegraded);
        ctr.req.arg0 = frame.size();
        ctr.instructions = 0;
        pending_.push_back(ctr);

        trio::ActEmitPacket emit;
        emit.pkt = net::Packet::make(std::move(frame));
        emit.nexthop_id = svc->client_nh[client];
        emit.instructions = 2;
        pending_.push_back(emit);

        ++app_.stats().degraded_emitted;
        svc->arrived_snapshot[slot_] = 0;
        ++slot_;
        state_ = State::kNextSlot;
        // The meta/merge reads and frame build: charged as one composite
        // step, the queued resets/emit follow as the engine drains them.
        return trio::ActContinue{10};
      }
    }
    return trio::ActExit{1};
  }

  /// Posted writes restoring the slot to its preset (identity) state.
  /// The owner word keeps the call id and gains the done marker, so the
  /// call's stragglers — which stall_for delays but never drops — read
  /// their own id as completed and drop instead of re-claiming the slot.
  void queue_reset(const NetRpcApp::Service& svc) {
    const std::uint64_t slot_addr =
        svc.layout.pending_base + slot_ * kPendingSlotBytes;
    trio::ActAsyncXtxn meta;
    meta.req.op = trio::XtxnOp::kWrite;
    meta.req.addr = slot_addr;
    meta.req.data.assign(16, 0);  // owner (done-marked) + arrived
    const std::uint64_t done = owner_ | 1;
    for (int i = 0; i < 8; ++i) {
      meta.req.data[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(done >> (8 * i));
    }
    meta.instructions = 1;
    pending_.push_back(meta);

    trio::ActAsyncXtxn buf;
    buf.req.op = trio::XtxnOp::kWrite;
    buf.req.addr = slot_addr + kPendingMergeOff;
    buf.req.data = merge_preset_bytes(svc.config);
    buf.instructions = 1;
    pending_.push_back(buf);
  }

  NetRpcApp& app_;
  std::vector<std::uint8_t> tenants_;
  std::size_t ti_ = 0;
  std::size_t slot_ = 0;
  State state_ = State::kNextSlot;
  std::uint64_t owner_ = 0;
  std::uint32_t arrived_ = 0;
  trio::ActionQueue pending_;
};

/// Ages the hot-key cache: a check-and-clear REF scan per tenant (keys
/// looked up since the last pass keep their entry — the hash block's REF
/// bit is the cache's LRU approximation), then one HashDelete per aged
/// key and a zeroed slot owner so the slot reads as empty to fills. When
/// the jobs layer has key partitions enabled, the scan covers exactly the
/// tenant's slice, leaving other tenants' REF state untouched.
class CacheScanProgram : public trio::PpeProgram {
 public:
  explicit CacheScanProgram(NetRpcApp& app) : app_(app) {
    tenants_ = app.configured_tenants();
  }

  trio::Action step(trio::ThreadContext& ctx) override {
    if (!pending_.empty()) return pending_.pop_front();
    return do_step(ctx);
  }

 private:
  enum class State { kScan, kScanReply, kDeleteReply };

  trio::Action do_step(trio::ThreadContext& ctx) {
    switch (state_) {
      case State::kScan: {
        if (ti_ >= tenants_.size()) return trio::ActExit{1};
        const NetRpcApp::Service* svc = app_.service(tenants_[ti_]);
        if (svc == nullptr) {
          ++ti_;
          return trio::ActContinue{1};
        }
        const std::uint32_t parts =
            std::max<std::uint32_t>(1, pfe().hash_table().key_partitions());
        const std::uint32_t part = tenants_[ti_] % parts;
        trio::ActSyncXtxn scan;
        scan.req.op = trio::XtxnOp::kHashScanStep;
        scan.req.arg0 = std::uint64_t(parts) << 32 | part;
        scan.req.arg1 = 64;
        scan.instructions = 4;
        state_ = State::kScanReply;
        return scan;
      }

      case State::kScanReply: {
        aged_.clear();
        for (std::size_t off = 0; off + 8 <= ctx.reply.data.size(); off += 8) {
          const std::uint64_t key = le64(ctx.reply.data, off);
          // Foreign keys (co-tenant jobs, other tenants when partitions
          // are off) are not ours to age.
          if (tenant_of_key(key) == tenants_[ti_]) {
            aged_.push_back(key);
          }
        }
        next_ = 0;
        trace_occupancy();
        return next_delete(ctx);
      }

      case State::kDeleteReply: {
        const NetRpcApp::Service* svc = app_.service(tenants_[ti_]);
        if (ctx.reply.ok && svc != nullptr) {
          const std::uint64_t key = aged_[next_ - 1];
          trio::ActAsyncXtxn clear;
          clear.req.op = trio::XtxnOp::kWrite;
          clear.req.addr = svc->layout.cache_slot(key) + kCacheOwnerOff;
          clear.req.data.assign(8, 0);
          clear.instructions = 0;
          pending_.push_back(clear);
          trio::ActAsyncXtxn ctr;
          ctr.req.op = trio::XtxnOp::kCounterInc;
          ctr.req.addr = svc->layout.counter_addr(kCtrCacheAged);
          ctr.req.arg0 = 0;
          ctr.instructions = 0;
          pending_.push_back(ctr);
          ++app_.stats().cache_aged;
        }
        return next_delete(ctx);
      }
    }
    return trio::ActExit{1};
  }

  trio::Action next_delete(trio::ThreadContext&) {
    if (next_ >= aged_.size()) {
      ++ti_;
      state_ = State::kScan;
      return trio::ActContinue{1};
    }
    trio::ActSyncXtxn del;
    del.req.op = trio::XtxnOp::kHashDelete;
    del.req.arg0 = aged_[next_++];
    del.instructions = 2;
    state_ = State::kDeleteReply;
    return del;
  }

  /// Trace row: sampled cache occupancy per tenant on the PFE's process.
  void trace_occupancy() {
    telemetry::Tracer* tracer = pfe().tracer();
    if (tracer == nullptr || !tracer->enabled()) return;
    tracer->counter(pfe().trace_pid(), "netrpc.cache_entries",
                    "tenant" + std::to_string(int(tenants_[ti_])),
                    pfe().router().simulator().now(),
                    static_cast<double>(app_.cache_entries(tenants_[ti_])));
  }

  trio::Pfe& pfe() { return app_.pfe(); }

  NetRpcApp& app_;
  std::vector<std::uint8_t> tenants_;
  std::size_t ti_ = 0;
  State state_ = State::kScan;
  std::vector<std::uint64_t> aged_;
  std::size_t next_ = 0;
  trio::ActionQueue pending_;
};

}  // namespace

NetRpcApp::NetRpcApp(trio::Pfe& pfe) : pfe_(pfe) {
  auto& registry = pfe_.router().telemetry().metrics;
  pfe_latency_hist_ =
      registry.histogram(pfe_.metric_prefix(), "netrpc.pfe_latency_ns");
}

void NetRpcApp::configure_service(const ServiceSetup& setup) {
  const ServiceConfig& cfg = setup.config;
  if (services_.count(cfg.tenant) != 0) {
    throw std::invalid_argument("NetRpcApp: tenant already configured");
  }
  if (cfg.value_words == 0 || cfg.value_words > kMaxValueWords) {
    throw std::invalid_argument("NetRpcApp: value_words out of range");
  }
  if (cfg.server_cnt == 0 || cfg.client_cnt == 0) {
    throw std::invalid_argument("NetRpcApp: need >=1 server and client");
  }
  if (cfg.window > kPendingSlotsPerClient) {
    throw std::invalid_argument(
        "NetRpcApp: window exceeds pending slots per client");
  }
  if (setup.client_nh.size() != cfg.client_cnt ||
      setup.server_nh.size() != cfg.server_cnt ||
      setup.client_ips.size() != cfg.client_cnt) {
    throw std::invalid_argument("NetRpcApp: nexthop/ip table size mismatch");
  }

  auto& sms = pfe_.sms();
  Service svc;
  svc.config = cfg;
  svc.layout.pending_base = sms.alloc_sram(pending_bytes(cfg), 64);
  svc.layout.cache_base = sms.alloc_sram(kCacheSlots * kCacheSlotBytes, 64);
  svc.layout.client_nh_base = sms.alloc_sram(cfg.client_cnt * 8, 8);
  svc.layout.server_nh_base = sms.alloc_sram(cfg.server_cnt * 8, 8);
  svc.layout.counter_base =
      sms.alloc_sram(kCounterCount * kCounterBytes, 16);
  for (std::size_t i = 0; i < setup.client_nh.size(); ++i) {
    sms.poke_u64(svc.layout.client_nh_base + i * 8, setup.client_nh[i]);
  }
  for (std::size_t i = 0; i < setup.server_nh.size(); ++i) {
    sms.poke_u64(svc.layout.server_nh_base + i * 8, setup.server_nh[i]);
  }
  svc.client_nh = setup.client_nh;
  svc.client_ips = setup.client_ips;
  svc.service_ip = setup.service_ip;
  svc.service_mac = setup.service_mac;
  svc.arrived_snapshot.assign(
      std::size_t(cfg.client_cnt) * kPendingSlotsPerClient, 0);
  preset_pending_slots(svc);
  svc.program = compile_datapath(cfg, svc.layout);
  services_.emplace(cfg.tenant, std::move(svc));
}

void NetRpcApp::preset_pending_slots(const Service& svc) {
  const std::vector<std::uint8_t> preset = merge_preset_bytes(svc.config);
  auto& sms = pfe_.sms();
  for (std::size_t s = 0; s < svc.arrived_snapshot.size(); ++s) {
    sms.poke_bytes(
        svc.layout.pending_base + s * kPendingSlotBytes + kPendingMergeOff,
        preset);
  }
}

void NetRpcApp::remove_service(std::uint8_t tenant) {
  if (services_.count(tenant) == 0) return;
  drop_cache_entries(tenant);
  services_.erase(tenant);
}

std::vector<std::uint8_t> NetRpcApp::configured_tenants() const {
  std::vector<std::uint8_t> out;
  out.reserve(services_.size());
  for (const auto& [tenant, svc] : services_) out.push_back(tenant);
  return out;
}

void NetRpcApp::install() {
  if (installed_) return;
  installed_ = true;
  trio::ProgramFactory fallback = pfe_.program_factory();
  pfe_.set_program_factory(
      [this, fallback](const net::Packet& pkt) -> trio::ProgramPtr {
        if (is_netrpc_frame(pkt.frame())) {
          const std::uint8_t tenant = pkt.frame().u8(kNetRpcHdrOff + 1);
          auto it = services_.find(tenant);
          if (it != services_.end()) {
            if (it->second.bypass) {
              // In-network assist off: the frame is ordinary IP traffic.
              if (fallback) return fallback(pkt);
              return pfe_.router().make_forwarding_program();
            }
            ++stats_.packets;
            return std::make_unique<NetRpcThread>(*this, it->second.program);
          }
          ++stats_.dropped_no_service;
          return nullptr;  // NetRPC frame for a tenant we don't serve
        }
        if (fallback) return fallback(pkt);
        return pfe_.router().make_forwarding_program();
      });
}

void NetRpcApp::set_bypass(std::uint8_t tenant, bool on) {
  services_.at(tenant).bypass = on;
}

void NetRpcApp::start_aging(sim::Duration period) {
  if (aging_group_ >= 0) return;
  aging_period_ = period;
  // Two phase-shifted timers: index 0 walks the pending-merge slots
  // (degraded completion), index 1 ages the cache (REF scan).
  aging_group_ = pfe_.timers().start(
      2, period,
      [this](std::uint32_t timer_index) -> trio::ProgramPtr {
        if (timer_index == 0) {
          return std::make_unique<PendingScanProgram>(*this);
        }
        return std::make_unique<CacheScanProgram>(*this);
      });
}

void NetRpcApp::stop_aging() {
  if (aging_group_ < 0) return;
  pfe_.timers().stop_group(aging_group_);
  aging_group_ = -1;
}

std::size_t NetRpcApp::drop_cache_entries(std::uint8_t tenant) {
  auto it = services_.find(tenant);
  if (it == services_.end()) return 0;
  const Service& svc = it->second;
  auto& hash = pfe_.hash_table();
  auto& sms = pfe_.sms();
  const std::uint64_t lo = svc.layout.cache_base;
  const std::uint64_t hi = lo + kCacheSlots * kCacheSlotBytes;
  std::size_t dropped = 0;
  for (const auto& [key, value] : hash.entries()) {
    // Match on both the tenant byte and the value landing in this
    // tenant's cache region — co-tenant jobs may reuse the id space.
    if (tenant_of_key(key) != tenant) continue;
    if (value < lo || value >= hi) continue;
    hash.erase(key);
    sms.poke_u64(svc.layout.cache_slot(key) + kCacheOwnerOff, 0);
    ++dropped;
  }
  return dropped;
}

std::uint64_t NetRpcApp::counter_packets(std::uint8_t tenant,
                                         CounterIdx idx) const {
  auto it = services_.find(tenant);
  if (it == services_.end()) return 0;
  return pfe_.sms().peek_u64(it->second.layout.counter_addr(idx));
}

std::uint64_t NetRpcApp::counter_bytes(std::uint8_t tenant,
                                       CounterIdx idx) const {
  auto it = services_.find(tenant);
  if (it == services_.end()) return 0;
  return pfe_.sms().peek_u64(it->second.layout.counter_addr(idx) + 8);
}

std::size_t NetRpcApp::cache_entries(std::uint8_t tenant) const {
  auto it = services_.find(tenant);
  if (it == services_.end()) return 0;
  const std::uint64_t lo = it->second.layout.cache_base;
  const std::uint64_t hi = lo + kCacheSlots * kCacheSlotBytes;
  std::size_t n = 0;
  for (const auto& [key, value] : pfe_.hash_table().entries()) {
    if (tenant_of_key(key) == tenant && value >= lo &&
        value < hi) {
      ++n;
    }
  }
  return n;
}

const NetRpcApp::Service* NetRpcApp::service(std::uint8_t tenant) const {
  auto it = services_.find(tenant);
  return it != services_.end() ? &it->second : nullptr;
}

NetRpcApp::Service* NetRpcApp::service_mut(std::uint8_t tenant) {
  auto it = services_.find(tenant);
  return it != services_.end() ? &it->second : nullptr;
}

}  // namespace netrpc
