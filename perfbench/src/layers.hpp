// Stand-alone host-time costs of single simulator layers, each timed on
// its public call with the operation shape the calling workload uses.
#pragma once

#include <cstddef>

namespace perfbench {

struct LayerTimings {
  /// Simulator::schedule_in + run, with a link-sized (40 B) closure.
  double queue_ns_per_event = 0;
  /// build_udp_frame + Packet::make + drop for a `payload_bytes` frame.
  double packet_ns_per_make = 0;
  /// SharedMemorySystem::issue of one AddVec32 of `addvec_words` words.
  double sms_ns_per_addvec = 0;
  /// HwHashTable::issue over an insert / lookup / delete cycle, per op.
  double hash_ns_per_op = 0;
};

/// Each figure is the median of several timed batches.
LayerTimings time_layers(std::size_t payload_bytes, std::size_t addvec_words);

}  // namespace perfbench
