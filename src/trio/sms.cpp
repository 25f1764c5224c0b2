#include "trio/sms.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <new>
#include <stdexcept>
#include <type_traits>

#include "sim/recycler.hpp"
#include "trio/trace_rows.hpp"

namespace trio {

// Words are stored little-endian (XTXN wire format); memcpy moves them.
static_assert(std::endian::native == std::endian::little);

namespace {

// Policer record layout (32 bytes, little-endian u64s):
//   +0  rate (bytes/sec)   +8  burst (bytes)
//   +16 tokens (bytes)     +24 last refill time (ns)
constexpr std::size_t kPolicerBytes = 32;

/// Calls fn(page index, offset in page, n) for each page-contiguous piece
/// of [addr, addr + len).
template <std::size_t kPageBytes, typename Fn>
void for_each_span(std::uint64_t addr, std::size_t len, Fn&& fn) {
  while (len > 0) {
    const std::size_t off = addr % kPageBytes;
    const std::size_t n = std::min(len, kPageBytes - off);
    fn(static_cast<std::size_t>(addr / kPageBytes), off, n);
    addr += n;
    len -= n;
  }
}

std::uint32_t u32_at(const std::uint8_t* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, 4);
  return v;
}

}  // namespace

SharedMemorySystem::SharedMemorySystem(sim::Simulator& simulator,
                                       const Calibration& cal)
    : sim_(simulator),
      cal_(cal),
      dram_cache_sets_(cal_.dram_cache_bytes / cal_.bank_interleave) {
  banks_.resize(static_cast<std::size_t>(cal_.sms_banks));
  dram_cache_tags_.resize((dram_cache_sets_ + kSetsPerChunk - 1) /
                          kSetsPerChunk);
  dram_brk_ = dram_base() + 64;
}

void SharedMemorySystem::instrument(telemetry::Telemetry& telem, int pid,
                                    std::string_view prefix) {
  telem.metrics.bind(ops_, prefix, "sms.ops");
  telem.metrics.bind(rmw_contended_, prefix, "sms.rmw_contended");
  queue_delay_hist_ = telem.metrics.histogram(prefix, "sms.queue_delay_ns");
  char label[48];
  for (std::size_t k = 0; k < banks_.size(); ++k) {
    std::snprintf(label, sizeof(label), "sms.bank%02zu.busy_cycles", k);
    telem.metrics.bind(banks_[k].busy_cycles, prefix, label);
  }
  if (telem.tracer.enabled()) {
    tracer_ = &telem.tracer;
    trace_pid_ = pid;
    for (std::size_t k = 0; k < banks_.size(); ++k) {
      std::snprintf(label, sizeof(label), "sms.bank%02zu", k);
      banks_[k].trace_name = label;
      telem.tracer.set_thread_name(
          pid, trace_rows::kSmsBankBase + static_cast<int>(k), label);
    }
  }
}

void SharedMemorySystem::PageRelease::operator()(Page* p) const noexcept {
  static_assert(std::is_trivially_destructible_v<Page>);
  sim::recycle_free(p, kPageBytes);
}

std::uint8_t* SharedMemorySystem::page(std::size_t index) {
  if (index >= pages_.size()) pages_.resize(index + 1);
  auto& p = pages_[index];
  if (!p) p.reset(::new (sim::recycle_alloc(kPageBytes)) Page{});
  return p->data();
}

void SharedMemorySystem::read(std::uint64_t addr, void* out,
                              std::size_t len) const {
  auto* dst = static_cast<std::uint8_t*>(out);
  for_each_span<kPageBytes>(addr, len, [&](std::size_t index,
                                           std::size_t off, std::size_t n) {
    if (index < pages_.size() && pages_[index]) {
      std::memcpy(dst, pages_[index]->data() + off, n);
    } else {
      std::memset(dst, 0, n);
    }
    dst += n;
  });
}

void SharedMemorySystem::write(std::uint64_t addr, const void* in,
                               std::size_t len) {
  const auto* src = static_cast<const std::uint8_t*>(in);
  for_each_span<kPageBytes>(addr, len, [&](std::size_t index,
                                           std::size_t off, std::size_t n) {
    std::memcpy(page(index) + off, src, n);
    src += n;
  });
}

template <typename T>
T SharedMemorySystem::load(std::uint64_t addr) const {
  T v{};
  read(addr, &v, sizeof v);
  return v;
}

template <typename T>
void SharedMemorySystem::store(std::uint64_t addr, T v) {
  write(addr, &v, sizeof v);
}

template <typename Fn>
void SharedMemorySystem::rmw_vec32(std::uint64_t addr,
                                   std::span<const std::uint8_t> in, Fn fn) {
  const std::size_t n = in.size() / 4;
  for (std::size_t i = 0; i < n;) {
    const std::uint64_t a = addr + i * 4;
    const std::size_t off = a % kPageBytes;
    if (off + 4 > kPageBytes) {  // an unaligned word straddling two pages
      store(a, fn(load<std::uint32_t>(a), u32_at(&in[i * 4])));
      ++i;
      continue;
    }
    const std::size_t end = i + std::min(n - i, (kPageBytes - off) / 4);
    std::uint8_t* mem = page(static_cast<std::size_t>(a / kPageBytes)) + off;
    for (; i < end; ++i, mem += 4) {
      const std::uint32_t word = fn(u32_at(mem), u32_at(&in[i * 4]));
      std::memcpy(mem, &word, 4);
    }
  }
}

void SharedMemorySystem::check_addr(std::uint64_t addr,
                                    std::size_t len) const {
  const std::uint64_t end = dram_base() + cal_.dram_bytes;
  if (addr > end || len > end - addr) {
    throw std::out_of_range("SMS access beyond address space: addr=" +
                            std::to_string(addr) +
                            " len=" + std::to_string(len));
  }
}

std::uint8_t SharedMemorySystem::peek_u8(std::uint64_t addr) const {
  check_addr(addr, 1);
  return load<std::uint8_t>(addr);
}

std::uint32_t SharedMemorySystem::peek_u32(std::uint64_t addr) const {
  check_addr(addr, 4);
  return load<std::uint32_t>(addr);
}

std::uint64_t SharedMemorySystem::peek_u64(std::uint64_t addr) const {
  check_addr(addr, 8);
  return load<std::uint64_t>(addr);
}

void SharedMemorySystem::poke_u8(std::uint64_t addr, std::uint8_t v) {
  check_addr(addr, 1);
  store(addr, v);
}

void SharedMemorySystem::poke_u32(std::uint64_t addr, std::uint32_t v) {
  check_addr(addr, 4);
  store(addr, v);
}

void SharedMemorySystem::poke_u64(std::uint64_t addr, std::uint64_t v) {
  check_addr(addr, 8);
  store(addr, v);
}

void SharedMemorySystem::poke_bytes(std::uint64_t addr,
                                    const std::vector<std::uint8_t>& data) {
  check_addr(addr, data.size());
  write(addr, data.data(), data.size());
}

std::vector<std::uint8_t> SharedMemorySystem::peek_bytes(
    std::uint64_t addr, std::size_t len) const {
  check_addr(addr, len);
  std::vector<std::uint8_t> out(len);
  read(addr, out.data(), len);
  return out;
}

void SharedMemorySystem::clear(std::uint64_t addr, std::size_t len) {
  check_addr(addr, len);
  static constexpr Page kZero{};
  for_each_span<kPageBytes>(addr, len, [&](std::size_t index,
                                           std::size_t off, std::size_t n) {
    if (index >= pages_.size() || !pages_[index]) return;
    PagePtr& p = pages_[index];
    if (n < kPageBytes) {
      // Trio-ML's slab buffers start 64 B past a page boundary, so a slab
      // clear only ever covers part of a page: release the page once the
      // bytes around the span are zero too.
      std::uint8_t* bytes = p->data();
      std::memset(bytes + off, 0, n);
      const std::size_t end = off + n;
      if (std::memcmp(bytes, kZero.data(), off) != 0 ||
          std::memcmp(bytes + end, kZero.data(), kPageBytes - end) != 0) {
        return;
      }
    }
    p.reset();  // an absent page reads as zero
  });
}

void SharedMemorySystem::configure_policer(std::uint64_t addr,
                                           const PolicerConfig& config) {
  poke_u64(addr, config.rate_bytes_per_sec);
  poke_u64(addr + 8, config.burst_bytes);
  poke_u64(addr + 16, config.burst_bytes);  // bucket starts full
  poke_u64(addr + 24, static_cast<std::uint64_t>(sim_.now().ns()));
}

std::uint64_t SharedMemorySystem::alloc_sram(std::size_t bytes,
                                             std::size_t align) {
  std::uint64_t addr = (sram_brk_ + align - 1) / align * align;
  if (addr + bytes > cal_.sram_bytes) {
    throw std::runtime_error("SMS: on-chip SRAM exhausted");
  }
  sram_brk_ = addr + bytes;
  return addr;
}

std::uint64_t SharedMemorySystem::alloc_dram(std::size_t bytes,
                                             std::size_t align) {
  std::uint64_t addr = (dram_brk_ + align - 1) / align * align;
  if (addr + bytes > dram_base() + cal_.dram_bytes) {
    throw std::runtime_error("SMS: DRAM exhausted");
  }
  dram_brk_ = addr + bytes;
  return addr;
}

void SharedMemorySystem::set_tenant_quota(std::uint8_t tenant,
                                          std::uint64_t bytes) {
  tenant_accounts_[tenant].quota = bytes;
}

bool SharedMemorySystem::reserve_tenant_bytes(std::uint8_t tenant,
                                              std::uint64_t bytes) {
  TenantAccount& acct = tenant_accounts_[tenant];
  if (acct.used + bytes > acct.quota) return false;
  acct.used += bytes;
  return true;
}

void SharedMemorySystem::release_tenant_bytes(std::uint8_t tenant,
                                              std::uint64_t bytes) {
  TenantAccount& acct = tenant_accounts_[tenant];
  acct.used = bytes > acct.used ? 0 : acct.used - bytes;
}

std::uint64_t SharedMemorySystem::tenant_bytes_used(
    std::uint8_t tenant) const {
  auto it = tenant_accounts_.find(tenant);
  return it == tenant_accounts_.end() ? 0 : it->second.used;
}

std::uint64_t SharedMemorySystem::tenant_quota(std::uint8_t tenant) const {
  auto it = tenant_accounts_.find(tenant);
  return it == tenant_accounts_.end() ? ~0ull : it->second.quota;
}

sim::Duration SharedMemorySystem::tier_latency(std::uint64_t addr) {
  if (addr < cal_.sram_bytes) return cal_.sram_latency;
  // DRAM region: consult the direct-mapped on-chip cache model.
  const std::uint64_t line = addr / cal_.bank_interleave;
  const std::uint64_t set = line % dram_cache_sets_;
  auto& chunk = dram_cache_tags_[static_cast<std::size_t>(set / kSetsPerChunk)];
  if (!chunk) {
    chunk = std::make_unique<TagChunk>();
    chunk->fill(~0ull);
  }
  std::uint64_t& tag = (*chunk)[set % kSetsPerChunk];
  if (tag == line) {
    ++cache_hits_;
    return cal_.dram_cache_latency;
  }
  ++cache_misses_;
  tag = line;
  return cal_.dram_latency;
}

int SharedMemorySystem::service_cycles(const XtxnRequest& req) const {
  const auto bytes_cycles = [&](std::size_t n) {
    return static_cast<int>((n + cal_.rmw_bytes_per_cycle - 1) /
                            cal_.rmw_bytes_per_cycle);
  };
  switch (req.op) {
    case XtxnOp::kRead:
      return bytes_cycles(req.len);
    case XtxnOp::kWrite:
      return bytes_cycles(req.data.size());
    case XtxnOp::kCounterInc:
      return 2 * cal_.rmw_add_cycles;  // packet half + byte half
    case XtxnOp::kPolicerCheck:
      return 4;
    case XtxnOp::kFetchAdd32:
    case XtxnOp::kFetchAnd64:
    case XtxnOp::kFetchOr64:
    case XtxnOp::kFetchXor64:
    case XtxnOp::kFetchClear64:
    case XtxnOp::kFetchSwap64:
    case XtxnOp::kMaskedWrite64:
      return cal_.rmw_add_cycles;
    case XtxnOp::kAddVec32:
    case XtxnOp::kMinVec32:
    case XtxnOp::kVoteVec32:
      return cal_.rmw_add_cycles *
             static_cast<int>(req.data.size() / 4);
    default:
      throw std::logic_error("SMS: unsupported XTXN op");
  }
}

void SharedMemorySystem::apply(const XtxnRequest& req, XtxnReply& reply) {
  switch (req.op) {
    case XtxnOp::kRead: {
      check_addr(req.addr, req.len);
      reply.data.resize(req.len);
      read(req.addr, reply.data.data(), req.len);
      break;
    }
    case XtxnOp::kWrite: {
      check_addr(req.addr, req.data.size());
      write(req.addr, req.data.data(), req.data.size());
      break;
    }
    case XtxnOp::kCounterInc: {
      // 16-byte Packet/Byte counter (Fig 6): packets += 1, bytes += arg0.
      check_addr(req.addr, 16);
      store(req.addr, load<std::uint64_t>(req.addr) + 1);
      store(req.addr + 8, load<std::uint64_t>(req.addr + 8) + req.arg0);
      break;
    }
    case XtxnOp::kPolicerCheck: {
      check_addr(req.addr, kPolicerBytes);
      const auto rate = load<std::uint64_t>(req.addr);
      const auto burst = load<std::uint64_t>(req.addr + 8);
      auto tokens = load<std::uint64_t>(req.addr + 16);
      const auto last = load<std::uint64_t>(req.addr + 24);
      const auto now_ns = static_cast<std::uint64_t>(sim_.now().ns());
      if (now_ns > last) {
        const double refill =
            static_cast<double>(now_ns - last) * 1e-9 * static_cast<double>(rate);
        const std::uint64_t filled =
            tokens + static_cast<std::uint64_t>(refill);
        tokens = filled > burst ? burst : filled;
        store(req.addr + 24, now_ns);
      }
      if (tokens >= req.arg0) {
        tokens -= req.arg0;
        reply.value = 1;  // conform
      } else {
        reply.value = 0;  // exceed
      }
      store(req.addr + 16, tokens);
      break;
    }
    case XtxnOp::kFetchAdd32: {
      check_addr(req.addr, 4);
      const auto old = load<std::uint32_t>(req.addr);
      store(req.addr, old + static_cast<std::uint32_t>(req.arg0));
      reply.value = old;
      break;
    }
    case XtxnOp::kFetchAnd64:
    case XtxnOp::kFetchOr64:
    case XtxnOp::kFetchXor64:
    case XtxnOp::kFetchClear64:
    case XtxnOp::kFetchSwap64: {
      check_addr(req.addr, 8);
      const auto old = load<std::uint64_t>(req.addr);
      std::uint64_t next = old;
      switch (req.op) {
        case XtxnOp::kFetchAnd64: next = old & req.arg0; break;
        case XtxnOp::kFetchOr64: next = old | req.arg0; break;
        case XtxnOp::kFetchXor64: next = old ^ req.arg0; break;
        case XtxnOp::kFetchClear64: next = old & ~req.arg0; break;
        case XtxnOp::kFetchSwap64: next = req.arg0; break;
        default: break;
      }
      store(req.addr, next);
      reply.value = old;
      break;
    }
    case XtxnOp::kMaskedWrite64: {
      check_addr(req.addr, 8);
      const auto old = load<std::uint64_t>(req.addr);
      store(req.addr, (old & ~req.arg1) | (req.arg0 & req.arg1));
      break;
    }
    case XtxnOp::kAddVec32: {
      // The RMW engine sums packed 32-bit integers into memory — this is
      // the heart of Trio-ML's in-network aggregation (§6.3).
      check_addr(req.addr, req.data.size());
      rmw_vec32(req.addr, req.data,
                [](std::uint32_t mem, std::uint32_t in) { return mem + in; });
      add32_ops_ += req.data.size() / 4;
      break;
    }
    case XtxnOp::kMinVec32: {
      // Element-wise unsigned minimum of packed 32-bit integers — the
      // second RMW merge mode, used by netrpc's `min` response policy.
      check_addr(req.addr, req.data.size());
      rmw_vec32(req.addr, req.data, [](std::uint32_t mem, std::uint32_t in) {
        return std::min(mem, in);
      });
      add32_ops_ += req.data.size() / 4;
      break;
    }
    case XtxnOp::kVoteVec32: {
      // Streaming Boyer-Moore majority per element. The merge buffer is
      // split-plane: candidates live at addr[0 .. len), counts at
      // addr[len .. 2*len), so the candidate plane is a plain packed
      // u32 vector a single kRead can fetch as the merged result —
      // netrpc's `majority` response policy.
      check_addr(req.addr, req.data.size() * 2);
      const std::size_t n = req.data.size() / 4;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t a = req.addr + i * 4;
        const std::uint64_t c = req.addr + req.data.size() + i * 4;
        const std::uint32_t incoming = u32_at(&req.data[i * 4]);
        const auto count = load<std::uint32_t>(c);
        if (count == 0) {
          store(a, incoming);
          store<std::uint32_t>(c, 1);
        } else if (load<std::uint32_t>(a) == incoming) {
          store(c, count + 1);
        } else {
          store(c, count - 1);
        }
      }
      add32_ops_ += n;
      break;
    }
    default:
      throw std::logic_error("SMS: unsupported XTXN op");
  }
}

sim::Time SharedMemorySystem::issue(const XtxnRequest& req,
                                    XtxnReply& reply) {
  ops_.inc();
  reply.reset();
  apply(req, reply);

  const int bank_idx = bank_of(req.addr);
  Bank& bank = banks_[static_cast<std::size_t>(bank_idx)];
  int cycles = service_cycles(req);
  if (line_ownership_mode_ && req.op != XtxnOp::kRead &&
      req.op != XtxnOp::kWrite) {
    // Ablation: conventional line-ownership RMW — fetch the line to the
    // thread, operate, write it back. The bank is occupied for the full
    // round trip instead of just the operation.
    cycles = cycles * 3 + static_cast<int>(2 * cal_.crossbar_latency.ns());
  }
  const sim::Duration service = sim::Duration::cycles(cycles, cal_.clock_hz);
  const sim::Time arrive = sim_.now() + cal_.crossbar_latency;
  const sim::Time start = arrive > bank.free_at ? arrive : bank.free_at;
  if (start > arrive) rmw_contended_.inc();
  queue_delay_hist_.record((start - arrive).ns());
  bank.free_at = start + service;
  bank.busy_cycles.inc(static_cast<std::uint64_t>(cycles));
  if (tracer_ != nullptr) {
    // Service span on the bank's row: queueing behind the RMW engine is
    // visible as the gap between arrival and the span's start.
    tracer_->complete(trace_pid_, trace_rows::kSmsBankBase + bank_idx,
                      xtxn_op_name(req.op), start, bank.free_at);
    tracer_->counter(trace_pid_, bank.trace_name, "busy_cycles", sim_.now(),
                     static_cast<double>(bank.busy_cycles.value()));
  }

  return bank.free_at + tier_latency(req.addr);
}

}  // namespace trio
