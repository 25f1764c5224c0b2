#include "faults/schedule.hpp"

#include <algorithm>
#include <climits>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "dsl/lexer.hpp"

namespace faults {
namespace {

/// `host:3`, `host:*.up`, `fabric:0.down`, `worker:5`, `leaf:1`, `spine`,
/// `router:2`, `router:spine`. `agg_context` decides how `leaf`/`spine`
/// resolve (router vs aggregation app).
Target parse_target(const dsl::Line& line, const dsl::Token& tok,
                    bool agg_context) {
  Target t;
  std::string body = tok.text;
  if (body.size() > 3 && body.compare(body.size() - 3, 3, ".up") == 0) {
    t.dir = LinkDir::kUp;
    body.resize(body.size() - 3);
  } else if (body.size() > 5 &&
             body.compare(body.size() - 5, 5, ".down") == 0) {
    t.dir = LinkDir::kDown;
    body.resize(body.size() - 5);
  }

  const std::size_t colon = body.find(':');
  const std::string kind = body.substr(0, colon);
  dsl::Token idx;
  if (colon != std::string::npos) {
    idx = dsl::Token{body.substr(colon + 1), tok.col + int(colon) + 1};
  }

  if (kind == "host") t.kind = TargetKind::kHostLink;
  else if (kind == "fabric") t.kind = TargetKind::kFabricLink;
  else if (kind == "worker") t.kind = TargetKind::kWorker;
  else if (kind == "leaf")
    t.kind = agg_context ? TargetKind::kLeafAgg : TargetKind::kLeafRouter;
  else if (kind == "spine")
    t.kind = agg_context ? TargetKind::kSpineAgg : TargetKind::kSpineRouter;
  else if (kind == "router" && idx.text == "spine") {
    t.kind = TargetKind::kSpineRouter;
    idx.text.clear();
  } else if (kind == "router") {
    t.kind = TargetKind::kLeafRouter;
  } else {
    line.fail(tok.col, "bad target `" + tok.text + "`");
  }

  if (!idx.text.empty() && idx.text != "*") {
    t.index = static_cast<int>(line.integer(idx, 0, INT_MAX, "target index"));
  }
  return t;
}

bool is_link_target(const Target& t) {
  return t.kind == TargetKind::kHostLink || t.kind == TargetKind::kFabricLink;
}

}  // namespace

FaultSchedule& FaultSchedule::flap(sim::Time at, Target link,
                                   sim::Duration outage) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kLinkFlap;
  e.target = link;
  e.duration = outage;
  return add(e);
}

FaultSchedule& FaultSchedule::link_down(sim::Time at, Target link) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kLinkDown;
  e.target = link;
  return add(e);
}

FaultSchedule& FaultSchedule::link_up(sim::Time at, Target link) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kLinkUp;
  e.target = link;
  return add(e);
}

FaultSchedule& FaultSchedule::burst_loss(sim::Time at, Target link,
                                         const net::GilbertElliott& model,
                                         sim::Duration window,
                                         std::uint64_t seed) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kBurstLoss;
  e.target = link;
  e.duration = window;
  e.burst = model;
  e.seed = seed;
  return add(e);
}

FaultSchedule& FaultSchedule::iid_loss(sim::Time at, Target link,
                                       double probability,
                                       sim::Duration window,
                                       std::uint64_t seed) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kIidLoss;
  e.target = link;
  e.duration = window;
  e.probability = probability;
  e.seed = seed;
  return add(e);
}

FaultSchedule& FaultSchedule::corrupt(sim::Time at, Target link,
                                      double probability,
                                      sim::Duration window,
                                      std::uint64_t seed) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kCorrupt;
  e.target = link;
  e.duration = window;
  e.probability = probability;
  e.seed = seed;
  return add(e);
}

FaultSchedule& FaultSchedule::stall(sim::Time at, Target router,
                                    sim::Duration length) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kRouterStall;
  e.target = router;
  e.duration = length;
  return add(e);
}

FaultSchedule& FaultSchedule::kill(sim::Time at, Target router) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kRouterKill;
  e.target = router;
  return add(e);
}

FaultSchedule& FaultSchedule::revive(sim::Time at, Target router) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kRouterRevive;
  e.target = router;
  return add(e);
}

FaultSchedule& FaultSchedule::crash(sim::Time at, int worker_index,
                                    int tenant) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kHostCrash;
  e.target = worker(worker_index);
  e.tenant = tenant;
  return add(e);
}

FaultSchedule& FaultSchedule::restart(sim::Time at, int worker_index,
                                      int tenant) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kHostRestart;
  e.target = worker(worker_index);
  e.tenant = tenant;
  return add(e);
}

FaultSchedule& FaultSchedule::drop_buckets(sim::Time at, Target agg,
                                           std::uint8_t job_id) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kBucketDrop;
  e.target = agg;
  e.job_id = job_id;
  return add(e);
}

FaultSchedule& FaultSchedule::add(FaultEvent event) {
  events_.push_back(event);
  return *this;
}

FaultSchedule FaultSchedule::parse(const std::string& text) {
  FaultSchedule schedule;
  for (const dsl::Line& line : dsl::lines("faults", text)) {
    const std::vector<dsl::Token>& toks = line.tokens();
    if (toks.size() < 3 || toks[0].text != "at") {
      line.fail(toks[0].col, "expected `at <time> <verb> <target> ...`");
    }
    FaultEvent e;
    e.at = sim::Time() + line.duration(toks[1]);
    const std::string& verb = toks[2].text;
    e.line = line.number();
    e.col = toks[2].col;
    const std::optional<FaultKind> kind = kind_from_name(verb);
    if (!kind) line.fail(e.col, "unknown verb `" + verb + "`");
    e.kind = *kind;
    if (toks.size() < 4) line.fail(e.col, "missing target");
    e.target = parse_target(line, toks[3], e.kind == FaultKind::kBucketDrop);

    // A bare token right after the target is the probability (loss /
    // corrupt); then `for <time>` and `key=value` parameters.
    std::size_t pos = 4;
    const bool have_probability = pos < toks.size() &&
                                  toks[pos].text != "for" &&
                                  !dsl::key_value(toks[pos]);
    if (have_probability) {
      e.probability = line.fraction(toks[pos++], "probability");
    }
    const dsl::Token* window = nullptr;  // the time after `for`
    while (pos < toks.size()) {
      const dsl::Token& tok = toks[pos++];
      if (tok.text == "for") {
        if (pos >= toks.size()) line.fail(tok.col, "`for` needs a time");
        window = &toks[pos++];
        e.duration = line.duration(*window);
        continue;
      }
      const std::optional<dsl::KeyValue> kv = dsl::key_value(tok);
      if (!kv) line.fail(tok.col, "unexpected token `" + tok.text + "`");
      const std::string& key = kv->key;
      const dsl::Token& v = kv->value;
      if (key == "p_enter") e.burst.p_enter = line.fraction(v, "p_enter");
      else if (key == "p_exit") e.burst.p_exit = line.fraction(v, "p_exit");
      else if (key == "loss_good")
        e.burst.loss_good = line.fraction(v, "loss_good");
      else if (key == "loss_bad")
        e.burst.loss_bad = line.fraction(v, "loss_bad");
      else if (key == "seed") e.seed = line.integer(v, 0, UINT64_MAX, "seed");
      else if (key == "job")
        e.job_id = static_cast<std::uint8_t>(line.integer(v, 0, 255, "job"));
      else if (key == "tenant")
        e.tenant = static_cast<int>(line.integer(v, 0, 255, "tenant"));
      else line.fail(tok.col, "unknown parameter `" + key + "`");
    }
    // The window's end, at + duration, is a time too.
    if (window != nullptr && e.duration.ns() > INT64_MAX - e.at.ns()) {
      line.fail(window->col, "window ends after INT64_MAX ns");
    }

    switch (e.kind) {
      case FaultKind::kLinkFlap:
      case FaultKind::kRouterStall:
        if (window == nullptr) line.fail(e.col, verb + " needs `for <time>`");
        break;
      case FaultKind::kIidLoss:
      case FaultKind::kCorrupt:
        if (!have_probability) line.fail(e.col, verb + " needs a probability");
        break;
      case FaultKind::kRouterKill:
        if (window != nullptr) {
          line.fail(e.col, "kill is permanent; use a `revive` line");
        }
        break;
      default:
        break;
    }

    // `tenant=` scopes a crash/restart to one tenant's worker and aliases
    // `job=` on drop-buckets (tenant id == job id, docs/jobs.md).
    if (e.tenant >= 0) {
      if (e.kind == FaultKind::kBucketDrop) {
        e.job_id = static_cast<std::uint8_t>(e.tenant);
      } else if (e.kind != FaultKind::kHostCrash &&
                 e.kind != FaultKind::kHostRestart) {
        line.fail(e.col,
                  "`tenant=` only applies to crash/restart/drop-buckets");
      }
    }

    const bool link_verb =
        e.kind == FaultKind::kLinkDown || e.kind == FaultKind::kLinkUp ||
        e.kind == FaultKind::kLinkFlap || e.kind == FaultKind::kBurstLoss ||
        e.kind == FaultKind::kIidLoss || e.kind == FaultKind::kCorrupt;
    if (link_verb && !is_link_target(e.target)) {
      line.fail(toks[3].col, "verb `" + verb + "` needs a link target");
    }
    if ((e.kind == FaultKind::kHostCrash ||
         e.kind == FaultKind::kHostRestart) &&
        e.target.kind != TargetKind::kWorker) {
      line.fail(toks[3].col, "verb `" + verb + "` needs a worker target");
    }
    if ((e.kind == FaultKind::kRouterStall ||
         e.kind == FaultKind::kRouterKill ||
         e.kind == FaultKind::kRouterRevive) &&
        e.target.kind != TargetKind::kLeafRouter &&
        e.target.kind != TargetKind::kSpineRouter) {
      line.fail(toks[3].col, "verb `" + verb + "` needs a router target");
    }
    schedule.add(e);
  }
  return schedule;
}

namespace {

/// Does `close` clear the fault `open` started? Same target kind and
/// instance; kAll on either side matches any instance. Crash/restart
/// additionally pair on the tenant qualifier.
bool closes(const FaultEvent& open, const FaultEvent& close) {
  if (open.target.kind != close.target.kind) return false;
  if (open.target.index != Target::kAll && close.target.index != Target::kAll &&
      open.target.index != close.target.index) {
    return false;
  }
  switch (open.kind) {
    case FaultKind::kLinkDown:
      return close.kind == FaultKind::kLinkUp;
    case FaultKind::kRouterKill:
      return close.kind == FaultKind::kRouterRevive;
    case FaultKind::kHostCrash:
      return close.kind == FaultKind::kHostRestart &&
             close.tenant == open.tenant;
    default:
      return false;
  }
}

}  // namespace

std::vector<PacketWindow> packet_windows(const FaultSchedule& schedule) {
  std::vector<PacketWindow> out;
  const auto& events = schedule.events();
  for (const FaultEvent& ev : events) {
    switch (ev.kind) {
      case FaultKind::kLinkFlap:
      case FaultKind::kRouterStall:
        out.push_back({ev.at, ev.at + ev.duration});
        break;
      case FaultKind::kBurstLoss:
      case FaultKind::kIidLoss:
      case FaultKind::kCorrupt:
        out.push_back({ev.at, ev.duration == sim::Duration::zero()
                                  ? sim::Time::max()
                                  : ev.at + ev.duration});
        break;
      case FaultKind::kLinkDown:
      case FaultKind::kRouterKill:
      case FaultKind::kHostCrash: {
        // Paired fault: the earliest matching closing event at or after
        // `at` ends the window; none means it never clears.
        sim::Time end = sim::Time::max();
        for (const FaultEvent& other : events) {
          if (other.at >= ev.at && closes(ev, other) && other.at < end) {
            end = other.at;
          }
        }
        out.push_back({ev.at, end});
        break;
      }
      case FaultKind::kBucketDrop:
        out.push_back({ev.at, ev.at});  // instantaneous
        break;
      case FaultKind::kLinkUp:
      case FaultKind::kHostRestart:
      case FaultKind::kRouterRevive:
        // Closing events open no window of their own; the padding the
        // consumer applies covers the post-recovery tail.
        break;
    }
  }
  return out;
}

FaultSchedule FaultSchedule::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read fault schedule: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return parse(text.str());
}

namespace {

/// Shortest decimal spelling that strtod reads back to exactly `v`.
std::string fmt_prob(double v) {
  for (int prec = 6; prec <= 17; ++prec) {
    std::ostringstream os;
    os.precision(prec);
    os << v;
    if (std::strtod(os.str().c_str(), nullptr) == v) return os.str();
  }
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

std::string FaultSchedule::to_dsl() const {
  using dsl::format_duration;
  std::ostringstream out;
  for (const FaultEvent& e : events_) {
    out << "at " << format_duration(e.at - sim::Time()) << ' '
        << kind_name(e.kind) << ' ' << target_name(e.target);
    switch (e.kind) {
      case FaultKind::kLinkFlap:
      case FaultKind::kRouterStall:
        out << " for " << format_duration(e.duration);
        break;
      case FaultKind::kBurstLoss:
        out << " p_enter=" << fmt_prob(e.burst.p_enter)
            << " p_exit=" << fmt_prob(e.burst.p_exit)
            << " loss_good=" << fmt_prob(e.burst.loss_good)
            << " loss_bad=" << fmt_prob(e.burst.loss_bad);
        if (e.duration.ns() != 0) out << " for " << format_duration(e.duration);
        if (e.seed != 0) out << " seed=" << e.seed;
        break;
      case FaultKind::kIidLoss:
      case FaultKind::kCorrupt:
        out << ' ' << fmt_prob(e.probability);
        if (e.duration.ns() != 0) out << " for " << format_duration(e.duration);
        if (e.seed != 0) out << " seed=" << e.seed;
        break;
      case FaultKind::kBucketDrop:
        if (e.tenant >= 0) out << " tenant=" << e.tenant;
        else out << " job=" << int(e.job_id);
        break;
      case FaultKind::kHostCrash:
      case FaultKind::kHostRestart:
        if (e.tenant >= 0) out << " tenant=" << e.tenant;
        break;
      case FaultKind::kLinkDown:
      case FaultKind::kLinkUp:
      case FaultKind::kRouterKill:
      case FaultKind::kRouterRevive:
        break;
    }
    out << '\n';
  }
  return out.str();
}

namespace {

[[noreturn]] void validate_fail(const FaultEvent& e, const std::string& why) {
  std::string where = "fault schedule";
  if (e.line > 0) {
    where += " line " + std::to_string(e.line);
    if (e.col > 0) where += " col " + std::to_string(e.col);
  }
  throw std::invalid_argument(where + ": " + why + " (`" + describe(e) + "`)");
}

/// Do two targets address an overlapping set of instances? kAll on either
/// side overlaps everything of the kind.
bool targets_overlap(const Target& a, const Target& b) {
  if (a.kind != b.kind) return false;
  return a.index == Target::kAll || b.index == Target::kAll ||
         a.index == b.index;
}

}  // namespace

void FaultSchedule::validate(const std::vector<int>* declared_tenants) const {
  // Time-sorted view (stable: same-time events keep schedule order, the
  // order the injector arms them in).
  std::vector<const FaultEvent*> order;
  order.reserve(events_.size());
  for (const FaultEvent& e : events_) order.push_back(&e);
  std::stable_sort(order.begin(), order.end(),
                   [](const FaultEvent* a, const FaultEvent* b) {
                     return a->at < b->at;
                   });

  std::vector<const FaultEvent*> open_kills;    // routers currently killed
  std::vector<const FaultEvent*> open_crashes;  // (worker, tenant) crashed
  for (const FaultEvent* ep : order) {
    const FaultEvent& e = *ep;
    if (e.tenant >= 0 && declared_tenants != nullptr &&
        std::find(declared_tenants->begin(), declared_tenants->end(),
                  e.tenant) == declared_tenants->end()) {
      validate_fail(e, "tenant=" + std::to_string(e.tenant) +
                           " is not declared in the jobs spec");
    }
    switch (e.kind) {
      case FaultKind::kRouterKill: {
        for (const FaultEvent* open : open_kills) {
          if (targets_overlap(open->target, e.target)) {
            validate_fail(e, "kill overlaps an earlier kill of " +
                                 target_name(open->target) +
                                 " that is still open (missing revive?)");
          }
        }
        open_kills.push_back(ep);
        break;
      }
      case FaultKind::kRouterRevive: {
        bool matched = false;
        for (auto it = open_kills.begin(); it != open_kills.end();) {
          if (targets_overlap((*it)->target, e.target)) {
            matched = true;
            it = open_kills.erase(it);
          } else {
            ++it;
          }
        }
        if (!matched) {
          validate_fail(e, "revive of " + target_name(e.target) +
                               " with no kill still open");
        }
        break;
      }
      case FaultKind::kHostCrash: {
        for (const FaultEvent* open : open_crashes) {
          if (open->tenant == e.tenant &&
              targets_overlap(open->target, e.target)) {
            validate_fail(e, "crash overlaps an earlier crash of " +
                                 target_name(open->target) +
                                 " that is still open (missing restart?)");
          }
        }
        open_crashes.push_back(ep);
        break;
      }
      case FaultKind::kHostRestart: {
        bool matched = false;
        for (auto it = open_crashes.begin(); it != open_crashes.end();) {
          if ((*it)->tenant == e.tenant &&
              targets_overlap((*it)->target, e.target)) {
            matched = true;
            it = open_crashes.erase(it);
          } else {
            ++it;
          }
        }
        if (!matched) {
          validate_fail(e, "restart of " + target_name(e.target) +
                               " with no crash still open");
        }
        break;
      }
      default:
        break;
    }
  }
}

}  // namespace faults
