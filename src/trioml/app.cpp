#include "trioml/app.hpp"

#include <numeric>
#include <stdexcept>

#include "trio/router.hpp"
#include "trioml/advanced_straggler.hpp"
#include "trioml/aggregator.hpp"
#include "trioml/straggler.hpp"

namespace trioml {

namespace {

/// One slab's aggregation buffer: a full packet's gradients.
constexpr std::size_t kBufferBytes = std::size_t(kMaxGradsPerPacket) * 4;

}  // namespace

TrioMlApp::TrioMlApp(trio::Pfe& pfe, std::size_t slab_pool)
    : pfe_(pfe), slab_pool_(slab_pool) {
  // Pre-allocate the block slab pool: 64-byte records in on-chip SRAM
  // (hot, small), 4 KiB aggregation buffers in DMEM (large — §2.3 "data
  // structures to be placed in the type of memory that best matches
  // their capacity and bandwidth requirements"). One range per memory
  // puts slab i at a fixed stride from each base, the addresses a
  // slab-at-a-time bump allocation would give it.
  auto& sms = pfe_.sms();
  records_base_ = sms.alloc_sram(slab_pool_ * kBlockSlabBytes, 64);
  buffers_base_ = sms.alloc_dram(slab_pool_ * kBufferBytes, 64);
  // Popped from the back: slab N-1 is allocated first.
  free_slabs_.resize(slab_pool_);
  std::iota(free_slabs_.begin(), free_slabs_.end(), 0u);
  auto& registry = pfe_.router().telemetry().metrics;
  packet_latency_hist_ =
      registry.histogram(pfe_.metric_prefix(), "trioml.packet_latency_ns");
  block_latency_hist_ =
      registry.histogram(pfe_.metric_prefix(), "trioml.block_latency_ns");
}

void TrioMlApp::configure_job(const JobSetup& setup) {
  if (setup.src_ids.empty()) {
    throw std::invalid_argument("TrioMlApp: job needs at least one source");
  }
  if (has_job(setup.job_id)) {
    throw std::invalid_argument("TrioMlApp: job already configured");
  }
  JobRecord rec;
  rec.block_cnt_max = setup.block_cnt_max & 0xfff;
  rec.block_grad_max = setup.block_grad_max & 0xfff;
  rec.block_exp = setup.block_exp_ms;
  rec.out_src_addr = setup.out_src.value();
  rec.out_dst_addr = setup.out_dst.value();
  rec.out_nh_addr = setup.out_nh;
  rec.out_src_id = setup.out_src_id;
  rec.src_cnt = static_cast<std::uint8_t>(setup.src_ids.size());
  for (std::uint8_t src : setup.src_ids) {
    if (src >= 64) throw std::invalid_argument("source id out of range");
    rec.src_mask[0] |= 1ull << src;
  }

  auto& sms = pfe_.sms();
  const std::uint64_t addr = sms.alloc_sram(JobRecord::kSize, 64);
  sms.poke_bytes(addr, rec.pack());
  // A Packet/Byte counter per job tracks completed blocks / gradient bytes.
  const std::uint64_t ctr = sms.alloc_sram(16, 16);
  const std::uint64_t active = sms.alloc_sram(8, 8);
  // Job records are control-plane state: pinned, so they survive the
  // generation bump a router kill triggers (invalidate_active_blocks).
  if (!pfe_.hash_table().insert(job_key(setup.job_id), addr,
                                /*pinned=*/true)) {
    throw std::invalid_argument("TrioMlApp: job key already in the hash table");
  }
  Job& job = jobs_[setup.job_id];
  job.record = addr;
  job.counter = ctr;
  job.active_counter = active;
}

void TrioMlApp::remove_job(std::uint8_t job_id) {
  pfe_.hash_table().erase(job_key(job_id));
  // In-flight threads still post to the job's counters; only the record
  // goes.
  jobs_[job_id].record = 0;
}

std::vector<std::uint8_t> TrioMlApp::configured_jobs() const {
  std::vector<std::uint8_t> jobs;
  for (std::size_t id = 0; id < jobs_.size(); ++id) {
    if (jobs_[id].record != 0) jobs.push_back(std::uint8_t(id));
  }
  return jobs;
}

std::uint64_t TrioMlApp::job_worst_case_bytes(const JobSetup& setup) {
  const std::uint64_t control = JobRecord::kSize + 16 + 8;
  const std::uint64_t per_block = kBlockSlabBytes + kBufferBytes;
  return control + std::uint64_t(setup.block_cnt_max & 0xfff) * per_block;
}

std::size_t TrioMlApp::drop_active_blocks(std::uint8_t job_id) {
  auto& hash = pfe_.hash_table();
  std::size_t dropped = 0;
  for (const auto& [key, record_addr] : hash.entries()) {
    if (is_job_key(key)) continue;
    std::uint8_t j;
    std::uint16_t gen;
    std::uint32_t block;
    split_key(key, j, gen, block);
    if (j != job_id) continue;
    // Co-tenant apps share the hash table: a foreign key (e.g. a netrpc
    // cache presence entry whose tenant id matches this job id) points at
    // SMS state that is not a block record — leave it alone.
    if (!is_slab_record(record_addr)) continue;
    hash.erase(key);
    quarantine_slab(record_addr);
    ++dropped;
  }
  rewind_active_blocks(job_id, std::uint32_t(dropped));
  stats_.blocks_lost_fault += dropped;
  return dropped;
}

std::size_t TrioMlApp::invalidate_active_blocks() {
  auto& hash = pfe_.hash_table();
  hash.bump_generation();
  std::array<std::uint32_t, 256> lost{};  // by job id
  std::size_t dropped = hash.sweep_stale(
      [this, &lost](std::uint64_t key, std::uint64_t record_addr) {
        // Swept foreign entries (a co-tenant app's keys — the kill took
        // their state too) have no slab to free here.
        if (!is_slab_record(record_addr)) return;
        std::uint8_t j;
        std::uint16_t gen;
        std::uint32_t block;
        split_key(key, j, gen, block);
        ++lost[j];
        free_slab(record_addr);
      });
  for (std::size_t j = 0; j < lost.size(); ++j) {
    rewind_active_blocks(std::uint8_t(j), lost[j]);
  }
  stats_.blocks_lost_fault += dropped;
  return dropped;
}

void TrioMlApp::rewind_active_blocks(std::uint8_t job_id,
                                     std::uint32_t lost) {
  const std::uint64_t addr = job_active_counter_addr(job_id);
  if (addr == 0 || lost == 0) return;
  auto& sms = pfe_.sms();
  const std::uint32_t active = sms.peek_u32(addr);
  sms.poke_u32(addr, active >= lost ? active - lost : 0);
}

bool TrioMlApp::retarget_job_output(std::uint8_t job_id,
                                    std::uint32_t out_nh) {
  const std::uint64_t addr = job_record_addr(job_id);
  if (addr == 0) return false;
  auto& sms = pfe_.sms();
  JobRecord rec = JobRecord::unpack(sms.peek_bytes(addr, JobRecord::kSize));
  rec.out_nh_addr = out_nh;
  sms.poke_bytes(addr, rec.pack());
  return true;
}

void TrioMlApp::install() {
  pfe_.set_program_factory(make_aggregation_factory(*this));
}

void TrioMlApp::start_straggler_detection(int threads,
                                          sim::Duration timeout) {
  // N phase-shifted timers with period == timeout; each scans its own
  // 1/N of the hash table, so every record is aged on a `timeout` cadence
  // while each thread only walks a slice (§5 "Multi-thread scanning of
  // large hash tables").
  pfe_.timers().start(
      threads, timeout,
      [this, threads](std::uint32_t timer_index) {
        return std::make_unique<StragglerScanProgram>(
            *this, timer_index, static_cast<std::uint32_t>(threads));
      });
}

void TrioMlApp::stop_straggler_detection() { pfe_.timers().stop(); }

void TrioMlApp::enable_straggler_profiling(std::uint8_t job_id) {
  Job& job = jobs_[job_id];
  if (job.events_base != 0) return;
  job.events_base = pfe_.sms().alloc_sram(256 * 16, 64);
  job.state_base = pfe_.sms().alloc_sram(256 * 16, 64);
}

int TrioMlApp::start_straggler_classification(std::uint8_t job_id,
                                              sim::Duration period,
                                              int permanent_after_windows) {
  enable_straggler_profiling(job_id);
  ClassifierConfig cfg;
  cfg.permanent_after_windows = permanent_after_windows;
  // One infrequent timer: the classifier walks every source of the job.
  return pfe_.timers().start(
      1, period,
      [this, job_id, cfg](std::uint32_t) {
        return std::make_unique<StragglerClassifierProgram>(*this, job_id,
                                                            cfg);
      });
}

bool TrioMlApp::is_slab_record(std::uint64_t addr) const {
  return addr >= records_base_ &&
         addr - records_base_ < slab_pool_ * kBlockSlabBytes &&
         (addr - records_base_) % kBlockSlabBytes == 0;
}

std::uint32_t TrioMlApp::slab_index(std::uint64_t record_addr) const {
  if (!is_slab_record(record_addr)) {
    throw std::logic_error("TrioMlApp: unknown block record");
  }
  return std::uint32_t((record_addr - records_base_) / kBlockSlabBytes);
}

TrioMlApp::Slab TrioMlApp::slab(std::uint32_t index) const {
  return Slab{records_base_ + std::uint64_t(index) * kBlockSlabBytes,
              buffers_base_ + std::uint64_t(index) * kBufferBytes};
}

std::optional<TrioMlApp::Slab> TrioMlApp::alloc_slab() {
  if (free_slabs_.empty()) {
    ++stats_.out_of_slabs;
    return std::nullopt;
  }
  const std::uint32_t index = free_slabs_.back();
  free_slabs_.pop_back();
  return slab(index);
}

void TrioMlApp::free_slab(std::uint64_t record_addr) {
  free_slab_at(slab_index(record_addr));
}

void TrioMlApp::free_slab_at(std::uint32_t index) {
  // Zero the aggregation buffer so the next block starts clean. In
  // hardware this is done by an init-on-allocate background engine; here
  // it is functional-only (no time charged) — see DESIGN.md.
  pfe_.sms().clear(slab(index).buffer_addr, kBufferBytes);
  free_slabs_.push_back(index);
}

void TrioMlApp::quarantine_slab(std::uint64_t record_addr) {
  quarantined_slabs_.push_back(slab_index(record_addr));
  schedule_slab_reclaim();
}

void TrioMlApp::schedule_slab_reclaim() {
  if (reclaim_scheduled_ || quarantined_slabs_.empty()) return;
  reclaim_scheduled_ = true;
  pfe_.router().simulator().schedule_in(
      sim::Duration::micros(10), [this] {
        reclaim_scheduled_ = false;
        if (pfe_.active_threads() == 0) {
          for (std::uint32_t index : quarantined_slabs_) free_slab_at(index);
          quarantined_slabs_.clear();
        } else {
          schedule_slab_reclaim();
        }
      });
}

}  // namespace trioml
