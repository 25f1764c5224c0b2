#include "trioml/host.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace trioml {

// Result gradients are little-endian on the wire and loaded as host words.
static_assert(std::endian::native == std::endian::little);

TrioMlWorker::TrioMlWorker(sim::Simulator& simulator, Config config,
                           net::LinkEndpoint& tx)
    : sim_(simulator),
      config_(config),
      tx_(tx),
      rng_(0x7f4a7c15ull + (std::uint64_t(config.src_id) << 8)) {
  if (config_.grads_per_packet == 0 ||
      config_.grads_per_packet > kMaxGradsPerPacket) {
    throw std::invalid_argument("TrioMlWorker: bad grads_per_packet");
  }
  if (config_.window == 0) {
    throw std::invalid_argument("TrioMlWorker: window must be >= 1");
  }
}

void TrioMlWorker::start_allreduce(std::vector<std::uint32_t> grads,
                                   std::uint16_t gen_id,
                                   std::function<void(AllreduceResult)> done) {
  if (done_) {
    throw std::logic_error("TrioMlWorker: allreduce already in progress");
  }
  if (crashed_) {
    throw std::logic_error("TrioMlWorker: host is crashed (restart() first)");
  }
  // New incarnation: any still-pending timer/pump event from a previous
  // allreduce (or a crashed one) now carries a stale epoch and no-ops.
  ++epoch_;
  pump_scheduled_ = false;
  grads_ = std::move(grads);
  gen_id_ = gen_id;
  done_ = std::move(done);
  num_blocks_ = static_cast<std::uint32_t>(
      (grads_.size() + config_.grads_per_packet - 1) /
      config_.grads_per_packet);
  next_block_ = 0;
  completed_blocks_ = 0;
  outstanding_.clear();
  exhausted_blocks_ = 0;
  give_up_armed_ = false;
  result_ = AllreduceResult{};
  result_.grads.assign(grads_.size(), 0.0f);
  result_.blocks = num_blocks_;
  result_.start = sim_.now();
  pump();
}

void TrioMlWorker::start_allreduce_float(
    const std::vector<float>& grads, std::uint16_t gen_id,
    std::function<void(AllreduceResult)> done) {
  std::vector<std::uint32_t> q(grads.size());
  for (std::size_t i = 0; i < grads.size(); ++i) {
    q[i] = static_cast<std::uint32_t>(quantize(grads[i]));
  }
  start_allreduce(std::move(q), gen_id, std::move(done));
}

void TrioMlWorker::stall_for(sim::Duration d) {
  const sim::Time until = sim_.now() + d;
  if (until > stalled_until_) stalled_until_ = until;
  if (done_ && !pump_scheduled_) {
    pump_scheduled_ = true;
    sim_.schedule_at(stalled_until_, [this, epoch = epoch_] {
      if (epoch != epoch_) return;  // belongs to a dead incarnation
      pump_scheduled_ = false;
      pump();
    });
  }
}

void TrioMlWorker::crash() {
  if (crashed_) return;
  crashed_ = true;
  crashes_.inc();
  for (auto& [block, out] : outstanding_) {
    sim_.cancel(out.retransmit_timer);
  }
  // Belt and braces: epoch bump invalidates any event that survived the
  // cancellation sweep (e.g. a pump armed by stall_for, which is not
  // tracked in outstanding_), so nothing can fire against freed block
  // state or against blocks a restarted incarnation re-creates under the
  // same ids.
  ++epoch_;
  pump_scheduled_ = false;
  stalled_until_ = sim_.now();  // the stall modelled the dead process
  sim_.cancel(give_up_timer_);
  give_up_armed_ = false;
  exhausted_blocks_ = 0;
  outstanding_.clear();
  grads_.clear();
  done_ = nullptr;  // the in-flight allreduce dies with the host
  num_blocks_ = next_block_ = completed_blocks_ = 0;
}

void TrioMlWorker::pump() {
  if (!done_ || crashed_) return;
  if (sim_.now() < stalled_until_) {
    if (!pump_scheduled_) {
      pump_scheduled_ = true;
      sim_.schedule_at(stalled_until_, [this, epoch = epoch_] {
        if (epoch != epoch_) return;
        pump_scheduled_ = false;
        pump();
      });
    }
    return;
  }
  while (next_block_ < num_blocks_ &&
         outstanding_.size() < config_.window) {
    send_block(next_block_++, /*is_retransmit=*/false);
  }
}

void TrioMlWorker::send_block(std::uint32_t block_id, bool is_retransmit) {
  if (crashed_) return;
  const std::size_t begin =
      std::size_t(block_id) * config_.grads_per_packet;
  const std::size_t count =
      std::min<std::size_t>(config_.grads_per_packet, grads_.size() - begin);

  TrioMlHeader hdr;
  hdr.job_id = config_.job_id;
  hdr.block_id = block_id;
  hdr.gen_id = gen_id_;
  hdr.src_id = config_.src_id;
  hdr.src_cnt = 1;  // a leaf worker contributes itself
  hdr.final_block = block_id + 1 == num_blocks_;

  net::Buffer frame = build_aggregation_frame(
      config_.mac, config_.agg_mac, config_.ip, config_.agg_ip,
      config_.udp_src_port, hdr,
      std::span<const std::uint32_t>(grads_.data() + begin, count));
  tx_.send(net::Packet::make(std::move(frame)));
  ++packets_sent_;
  if (is_retransmit) {
    retransmissions_.inc();
  }

  Outstanding& out = outstanding_[block_id];
  if (!is_retransmit) {
    out.sent = sim_.now();
    out.retries = 0;
  }
  out.grad_cnt = static_cast<std::uint16_t>(count);
  if (config_.retransmit) arm_retransmit(block_id, out);
}

void TrioMlWorker::arm_retransmit(std::uint32_t block_id, Outstanding& out) {
  sim_.cancel(out.retransmit_timer);
  if (config_.retry_budget != 0 && out.retries >= config_.retry_budget) {
    // Budget exhausted: stop resending. The block stays outstanding — an
    // aged (degraded) Result from upstream still completes it, so a dead
    // contributor degrades the answer instead of wedging the worker.
    retry_budget_exhausted_.inc();
    if (!out.exhausted) {
      out.exhausted = true;
      ++exhausted_blocks_;
      maybe_arm_give_up();
    }
    return;
  }
  sim::Duration timeout = config_.retransmit_timeout;
  if (config_.retransmit_backoff && out.retries > 0) {
    double ns = static_cast<double>(timeout.ns());
    for (std::uint32_t k = 0;
         k < out.retries && ns < double(config_.backoff_max.ns()); ++k) {
      ns *= kBackoffFactor;
    }
    ns = std::min(ns, static_cast<double>(config_.backoff_max.ns()));
    ns *= 1.0 + kBackoffJitter * (2.0 * rng_.next_double() - 1.0);
    timeout = sim::Duration(std::max<std::int64_t>(1, std::int64_t(ns)));
    backoff_rearms_.inc();
  }
  out.retransmit_timer = sim_.schedule_in(timeout, [this, block_id,
                                                    epoch = epoch_] {
    // Epoch check first: block_id alone is ambiguous across incarnations
    // (a restarted allreduce re-creates the same ids), so a stale timer
    // must not charge retries against the new incarnation's block.
    if (epoch != epoch_ || crashed_) return;
    auto it = outstanding_.find(block_id);
    if (it == outstanding_.end()) return;
    ++it->second.retries;
    send_block(block_id, /*is_retransmit=*/true);
  });
}

void TrioMlWorker::receive(net::PacketPtr pkt, int) {
  if (crashed_) return;  // a crashed host hears nothing
  const net::Buffer& frame = pkt->frame();
  if (frame.size() < kGradOff) return;
  const auto udp = net::UdpHeader::parse(frame, net::UdpFrameLayout::kUdpOff);
  if (udp.dst_port != kTrioMlUdpPort && udp.src_port != kTrioMlUdpPort) {
    return;
  }
  const TrioMlHeader hdr = TrioMlHeader::parse(frame, kTrioMlHdrOff);
  if (hdr.job_id != config_.job_id) return;
  if (hdr.age_op >= 0xE) {
    // §5 classifier notification: record which source is straggling and
    // whether the network declared it permanent.
    straggler_notices_.push_back(StragglerNotice{
        hdr.src_id, hdr.age_op == 0xF, hdr.src_cnt, sim_.now()});
    return;
  }
  if (hdr.gen_id != gen_id_) return;
  if (frame.size() < kGradOff + std::size_t{4} * hdr.grad_cnt) {
    // Corruption can raise grad_cnt past the payload the frame carries.
    ++malformed_results_;
    return;
  }
  on_result(hdr, frame);
}

void TrioMlWorker::on_result(const TrioMlHeader& hdr,
                             const net::Buffer& frame) {
  auto it = outstanding_.find(hdr.block_id);
  if (it == outstanding_.end()) return;  // duplicate result
  ++results_received_;
  block_latency_us_.add((sim_.now() - it->second.sent).us());

  // Servers that receive partial aggregation results divide the returned
  // gradient values by the number of aggregated sources (§5); complete
  // results divide by the full source count — both yield the average.
  const std::uint8_t denom_u8 =
      hdr.degraded ? hdr.src_cnt
                   : (config_.expected_sources != 0 ? config_.expected_sources
                                                    : hdr.src_cnt);
  const float denom = denom_u8 == 0 ? 1.0f : static_cast<float>(denom_u8);
  if (hdr.degraded) {
    ++degraded_results_;
    ++result_.degraded_blocks;
  }
  // receive() checked that the frame holds grad_cnt gradients: one view
  // covers them, and each little-endian word is a plain load.
  const std::uint8_t* sums =
      frame.view(kGradOff, std::size_t{4} * hdr.grad_cnt).data();
  const std::size_t base = std::size_t(hdr.block_id) * config_.grads_per_packet;
  const std::size_t end = std::min(base + hdr.grad_cnt, result_.grads.size());
  for (std::size_t i = base; i < end; ++i) {
    std::int32_t sum;
    std::memcpy(&sum, sums + (i - base) * 4, sizeof sum);
    result_.grads[i] = dequantize(sum) / denom;
  }

  sim_.cancel(it->second.retransmit_timer);
  if (it->second.exhausted) --exhausted_blocks_;
  outstanding_.erase(it);
  if (give_up_armed_) {
    // A result got through: the aggregation path is alive after all.
    // Disarm and let a later exhaustion (or completion) re-evaluate.
    sim_.cancel(give_up_timer_);
    give_up_armed_ = false;
  }
  ++completed_blocks_;
  if (completed_blocks_ == num_blocks_) {
    complete();
  } else {
    pump();
    maybe_arm_give_up();
  }
}

void TrioMlWorker::maybe_arm_give_up() {
  // Arm only when the worker is fully wedged: nothing left to send, every
  // outstanding block has spent its retry budget, and nothing is armed
  // yet. Any arriving result disarms (see on_result).
  if (config_.give_up_grace == sim::Duration::zero() || give_up_armed_ ||
      !done_ || crashed_ || outstanding_.empty() ||
      next_block_ < num_blocks_ ||
      exhausted_blocks_ < outstanding_.size()) {
    return;
  }
  give_up_armed_ = true;
  give_up_timer_ =
      sim_.schedule_in(config_.give_up_grace, [this, epoch = epoch_] {
        if (epoch != epoch_) return;
        give_up_armed_ = false;
        give_up();
      });
}

void TrioMlWorker::give_up() {
  if (!done_ || crashed_ || outstanding_.empty()) return;
  for (auto& [block, out] : outstanding_) {
    sim_.cancel(out.retransmit_timer);
  }
  result_.abandoned_blocks += outstanding_.size();
  abandoned_blocks_ += outstanding_.size();
  ++abandoned_allreduces_;
  completed_blocks_ += static_cast<std::uint32_t>(outstanding_.size());
  outstanding_.clear();
  exhausted_blocks_ = 0;
  complete();
}

void TrioMlWorker::complete() {
  result_.finish = sim_.now();
  auto done = std::move(done_);
  done_ = nullptr;
  done(std::move(result_));
}

}  // namespace trioml
