#include "cluster/spec.hpp"

#include <stdexcept>
#include <string>

namespace cluster {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("ClusterSpec: " + what);
}

void validate_link(const LinkSpec& link, const char* tier) {
  if (link.gbps <= 0) fail(std::string(tier) + " link rate must be > 0");
  if (link.latency < sim::Duration::zero()) {
    fail(std::string(tier) + " link latency must be >= 0");
  }
  if (link.loss < 0 || link.loss >= 1) {
    fail(std::string(tier) + " link loss must be in [0, 1)");
  }
  if (link.queue_frames == 0) {
    fail(std::string(tier) + " link needs a transmit queue");
  }
}

}  // namespace

void ClusterSpec::validate() const {
  if (racks < 1) fail("need at least one rack");
  if (workers_per_rack < 1) fail("need at least one worker per rack");
  // Each aggregation level tracks its contributors in the job record's
  // source mask (64 bits): workers-per-rack at the leaves, racks at the
  // spine.
  if (workers_per_rack > 64) fail("more than 64 workers per rack");
  if (racks > 64) fail("more than 64 racks");
  // Workers divide full results by expected_sources, a uint8 on the wire.
  if (total_workers() > 254) fail("more than 254 workers");
  if (grads_per_packet == 0 || grads_per_packet > trioml::kMaxGradsPerPacket) {
    fail("grads_per_packet out of range");
  }
  if (window == 0) fail("window must be >= 1");
  if (slab_pool == 0) fail("slab pool must be non-empty");
  if (shards < 0) fail("shards must be >= 0");
  validate_link(host_link, "host");
  validate_link(fabric_link, "fabric");
}

}  // namespace cluster
