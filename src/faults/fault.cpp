#include "faults/fault.hpp"

#include <iterator>
#include <sstream>

#include "dsl/lexer.hpp"

namespace faults {
namespace {

/// Every FaultKind's DSL verb, in enum order.
constexpr const char* kVerbs[] = {
    "down",  "up",    "flap",    "burst",        "loss", "corrupt",
    "stall", "crash", "restart", "drop-buckets", "kill", "revive"};
static_assert(std::size(kVerbs) == std::size_t(FaultKind::kRouterRevive) + 1);

}  // namespace

const char* kind_name(FaultKind kind) { return kVerbs[int(kind)]; }

std::optional<FaultKind> kind_from_name(std::string_view verb) {
  for (std::size_t k = 0; k < std::size(kVerbs); ++k) {
    if (verb == kVerbs[k]) return FaultKind(k);
  }
  return std::nullopt;
}

std::string target_name(const Target& target) {
  std::string out;
  switch (target.kind) {
    case TargetKind::kHostLink: out = "host"; break;
    case TargetKind::kFabricLink: out = "fabric"; break;
    case TargetKind::kWorker: out = "worker"; break;
    case TargetKind::kLeafRouter: out = "leaf"; break;
    case TargetKind::kSpineRouter: return "spine";
    case TargetKind::kLeafAgg: out = "leaf"; break;
    case TargetKind::kSpineAgg: return "spine";
  }
  out += ':';
  out += target.index == Target::kAll ? "*" : std::to_string(target.index);
  if (target.dir == LinkDir::kUp) out += ".up";
  else if (target.dir == LinkDir::kDown) out += ".down";
  return out;
}

std::string describe(const FaultEvent& event) {
  std::ostringstream out;
  out << dsl::format_duration(event.at - sim::Time()) << ' '
      << kind_name(event.kind) << ' ' << target_name(event.target);
  switch (event.kind) {
    case FaultKind::kLinkFlap:
    case FaultKind::kRouterStall:
      out << " for " << dsl::format_duration(event.duration);
      break;
    case FaultKind::kBurstLoss:
      out << " p_enter=" << event.burst.p_enter
          << " p_exit=" << event.burst.p_exit;
      if (event.duration.ns() != 0) {
        out << " for " << dsl::format_duration(event.duration);
      }
      break;
    case FaultKind::kIidLoss:
    case FaultKind::kCorrupt:
      out << ' ' << event.probability;
      if (event.duration.ns() != 0) {
        out << " for " << dsl::format_duration(event.duration);
      }
      break;
    case FaultKind::kBucketDrop:
      out << " job=" << int(event.job_id);
      break;
    default:
      break;
  }
  if (event.tenant >= 0 && (event.kind == FaultKind::kHostCrash ||
                            event.kind == FaultKind::kHostRestart)) {
    out << " tenant=" << event.tenant;
  }
  return out.str();
}

}  // namespace faults
