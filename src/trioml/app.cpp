#include "trioml/app.hpp"

#include <algorithm>
#include <stdexcept>

#include "trio/router.hpp"
#include "trioml/advanced_straggler.hpp"
#include "trioml/aggregator.hpp"
#include "trioml/straggler.hpp"

namespace trioml {

TrioMlApp::TrioMlApp(trio::Pfe& pfe, Config config)
    : pfe_(pfe), config_(config) {
  // Pre-allocate the block slab pool: 64-byte records in on-chip SRAM
  // (hot, small), 4 KiB aggregation buffers in DMEM (large — §2.3 "data
  // structures to be placed in the type of memory that best matches
  // their capacity and bandwidth requirements").
  auto& sms = pfe_.sms();
  free_slabs_.reserve(config_.slab_pool);
  for (std::size_t i = 0; i < config_.slab_pool; ++i) {
    Slab slab;
    slab.record_addr = sms.alloc_sram(kBlockSlabBytes, 64);
    slab.buffer_addr =
        sms.alloc_dram(std::size_t(kMaxGradsPerPacket) * 4, 64);
    record_to_buffer_.emplace(slab.record_addr, slab.buffer_addr);
    buffer_to_record_.emplace(slab.buffer_addr, slab.record_addr);
    free_slabs_.push_back(slab);
  }
  auto& registry = pfe_.router().telemetry().metrics;
  const std::string prefix = pfe_.metric_prefix() + "trioml.";
  packet_latency_hist_ = registry.histogram(prefix + "packet_latency_ns");
  block_latency_hist_ = registry.histogram(prefix + "block_latency_ns");
}

void TrioMlApp::configure_job(const JobSetup& setup) {
  if (setup.src_ids.empty()) {
    throw std::invalid_argument("TrioMlApp: job needs at least one source");
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
  job_records_[setup.job_id] = addr;
  job_counters_[setup.job_id] = ctr;
  job_active_counters_[setup.job_id] = active;
  // Job records are control-plane state: pinned, so they survive the
  // generation bump a router kill triggers (invalidate_active_blocks).
  if (!pfe_.hash_table().insert(job_key(setup.job_id), addr,
                                /*pinned=*/true)) {
    throw std::invalid_argument("TrioMlApp: job already configured");
  }
}

void TrioMlApp::remove_job(std::uint8_t job_id) {
  pfe_.hash_table().erase(job_key(job_id));
  job_records_.erase(job_id);
}

std::vector<std::uint8_t> TrioMlApp::configured_jobs() const {
  std::vector<std::uint8_t> jobs;
  jobs.reserve(job_records_.size());
  for (const auto& [job, addr] : job_records_) jobs.push_back(job);
  std::sort(jobs.begin(), jobs.end());
  return jobs;
}

std::uint64_t TrioMlApp::job_worst_case_bytes(const JobSetup& setup) {
  const std::uint64_t control = JobRecord::kSize + 16 + 8;
  const std::uint64_t per_block =
      kBlockSlabBytes + std::uint64_t(kMaxGradsPerPacket) * 4;
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
    if (record_to_buffer_.find(record_addr) == record_to_buffer_.end()) {
      continue;
    }
    hash.erase(key);
    quarantine_slab(Slab{record_addr, buffer_of_record(record_addr)});
    ++dropped;
  }
  // Rewind the job's active-block count so block_cnt_max capping stays
  // accurate after the loss.
  const std::uint64_t active_addr = job_active_counter_addr(job_id);
  if (active_addr != 0 && dropped != 0) {
    auto& sms = pfe_.sms();
    const std::uint32_t active = sms.peek_u32(active_addr);
    sms.poke_u32(active_addr,
                 active >= dropped ? active - std::uint32_t(dropped) : 0);
  }
  stats_.blocks_lost_fault += dropped;
  return dropped;
}

std::size_t TrioMlApp::invalidate_active_blocks() {
  auto& hash = pfe_.hash_table();
  hash.bump_generation();
  std::unordered_map<std::uint8_t, std::uint32_t> per_job;
  std::size_t dropped = hash.sweep_stale(
      [this, &per_job](std::uint64_t key, std::uint64_t record_addr) {
        std::uint8_t j;
        std::uint16_t gen;
        std::uint32_t block;
        split_key(key, j, gen, block);
        // Swept foreign entries (a co-tenant app's keys — the kill took
        // their state too) have no slab to free here.
        if (record_to_buffer_.find(record_addr) == record_to_buffer_.end()) {
          return;
        }
        ++per_job[j];
        free_slab(Slab{record_addr, buffer_of_record(record_addr)});
      });
  auto& sms = pfe_.sms();
  for (const auto& [job_id, lost] : per_job) {
    const std::uint64_t active_addr = job_active_counter_addr(job_id);
    if (active_addr == 0) continue;
    const std::uint32_t active = sms.peek_u32(active_addr);
    sms.poke_u32(active_addr, active >= lost ? active - lost : 0);
  }
  stats_.blocks_lost_fault += dropped;
  return dropped;
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

std::uint64_t TrioMlApp::job_counter_addr(std::uint8_t job_id) const {
  auto it = job_counters_.find(job_id);
  return it == job_counters_.end() ? 0 : it->second;
}

std::uint64_t TrioMlApp::job_active_counter_addr(std::uint8_t job_id) const {
  auto it = job_active_counters_.find(job_id);
  return it == job_active_counters_.end() ? 0 : it->second;
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
  if (profiling_.contains(job_id)) return;
  Profiling p;
  p.events_base = pfe_.sms().alloc_sram(256 * 16, 64);
  p.state_base = pfe_.sms().alloc_sram(256 * 16, 64);
  profiling_.emplace(job_id, p);
}

bool TrioMlApp::profiling_enabled(std::uint8_t job_id) const {
  return profiling_.contains(job_id);
}

std::uint64_t TrioMlApp::straggler_event_counter_addr(
    std::uint8_t job_id, std::uint8_t src) const {
  auto it = profiling_.find(job_id);
  return it == profiling_.end() ? 0
                                : it->second.events_base + std::uint64_t(src) * 16;
}

std::uint64_t TrioMlApp::classifier_state_addr(std::uint8_t job_id,
                                               std::uint8_t src) const {
  auto it = profiling_.find(job_id);
  return it == profiling_.end() ? 0
                                : it->second.state_base + std::uint64_t(src) * 16;
}

std::uint64_t TrioMlApp::job_record_addr(std::uint8_t job_id) const {
  auto it = job_records_.find(job_id);
  return it == job_records_.end() ? 0 : it->second;
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

std::optional<TrioMlApp::Slab> TrioMlApp::alloc_slab() {
  if (free_slabs_.empty()) {
    ++stats_.out_of_slabs;
    return std::nullopt;
  }
  Slab slab = free_slabs_.back();
  free_slabs_.pop_back();
  return slab;
}

void TrioMlApp::free_slab(const Slab& slab) {
  // Zero the aggregation buffer so the next block starts clean. In
  // hardware this is done by an init-on-allocate background engine; here
  // it is functional-only (no time charged) — see DESIGN.md.
  pfe_.sms().clear(slab.buffer_addr, std::size_t(kMaxGradsPerPacket) * 4);
  free_slabs_.push_back(slab);
}

void TrioMlApp::quarantine_slab(const Slab& slab) {
  quarantined_slabs_.push_back(slab);
  schedule_slab_reclaim();
}

void TrioMlApp::schedule_slab_reclaim() {
  if (reclaim_scheduled_ || quarantined_slabs_.empty()) return;
  reclaim_scheduled_ = true;
  pfe_.router().simulator().schedule_in(
      sim::Duration::micros(10), [this] {
        reclaim_scheduled_ = false;
        if (pfe_.active_threads() == 0) {
          for (const Slab& slab : quarantined_slabs_) free_slab(slab);
          quarantined_slabs_.clear();
        } else {
          schedule_slab_reclaim();
        }
      });
}

void TrioMlApp::free_slab_by_buffer(std::uint64_t buffer_addr) {
  auto it = buffer_to_record_.find(buffer_addr);
  if (it == buffer_to_record_.end()) {
    throw std::logic_error("TrioMlApp: unknown aggregation buffer");
  }
  free_slab(Slab{it->second, buffer_addr});
}

std::uint64_t TrioMlApp::buffer_of_record(std::uint64_t record_addr) const {
  auto it = record_to_buffer_.find(record_addr);
  if (it == record_to_buffer_.end()) {
    throw std::logic_error("TrioMlApp: unknown block record");
  }
  return it->second;
}

}  // namespace trioml
