// trio-fuzz — chaos fuzzer for the simulated Trio cluster (docs/vigil.md).
//
//   trio-fuzz [--profile failover|jobs|netrpc|fluid] [--seed S] [--runs N]
//             [--time-budget DUR] [--report FILE] [--repro-dir DIR]
//             [--shrink-budget N] [--blocks N] [--plant-bug] [--emit DIR]
//
// Each run i derives scenario seed S+i, generates a fault schedule from
// the profile's grammar (src/vigil/generator.*), replays it through the
// scenario runner against the profile's canonical scenario
// (vigil::profile_scenario) with the full invariant catalogue armed
// (src/vigil/invariants.*), and — on any violation — delta-debugs the
// schedule down to a minimal repro (src/vigil/shrink.*) written to
// --repro-dir as a replayable `.faults` file.
//
// --time-budget bounds *wall-clock* time (e.g. `90s`): no new run starts
// once it is spent (runs in flight finish). --report writes a JSON
// summary either way. Exit status: 0 when every run converged with zero
// violations, 1 otherwise, 2 on usage errors.
//
// --plant-bug re-introduces a real historical bug (workers wedging
// forever against a permanently dead aggregation path instead of
// completing degraded: a zero give-up grace) so the pipeline can be
// demonstrated end to end: the watchdog catches it, the shrinker reduces
// it.
//
// --emit DIR generates (but does not execute) each run's schedule into
// DIR — how the seed corpus under tests/corpus/ is (re)generated.
//
// Every number goes through the DSLs' checked readers (dsl/lexer.hpp): a
// malformed or out-of-range value prints usage and exits 2.
#include <chrono>
#include <climits>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dsl/lexer.hpp"
#include "faults/schedule.hpp"
#include "telemetry/json.hpp"
#include "vigil/generator.hpp"
#include "vigil/runner.hpp"
#include "vigil/shrink.hpp"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: trio-fuzz [--profile failover|jobs|netrpc|fluid] [--seed S] "
      "[--runs N] [--time-budget DUR] [--report FILE] [--repro-dir DIR] "
      "[--shrink-budget N] [--blocks N] [--plant-bug] [--emit DIR]\n");
  return 2;
}

struct RunRecord {
  std::uint64_t seed = 0;
  bool converged = false;
  std::vector<vigil::Violation> violations;
  std::size_t events = 0;
  std::size_t shrunk_events = 0;
  int oracle_calls = 0;
  std::string repro_path;
  std::string repro_dsl;
};

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) return false;
  out << text;
  return bool(out);
}

std::string repro_header(vigil::Profile profile, std::uint64_t seed,
                         const std::vector<vigil::Violation>& violations) {
  std::ostringstream os;
  os << "# trio-fuzz repro: profile=" << vigil::profile_name(profile)
     << " seed=" << seed << "\n";
  for (const vigil::Violation& v : violations) {
    os << "# violates " << v.invariant << ": " << v.detail << "\n";
  }
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  vigil::Profile profile = vigil::Profile::kFailover;
  std::uint64_t seed = 1;
  int runs = 20;
  int blocks = 2;
  int shrink_budget = 120;
  bool plant_bug = false;
  std::int64_t budget_ns = -1;
  std::string report_path;
  std::string repro_dir;
  std::string emit_dir;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&](const char* flag) -> const char* {
        const std::string eq = std::string(flag) + "=";
        if (arg.rfind(eq, 0) == 0) return arg.c_str() + eq.size();
        if (arg == flag && i + 1 < argc) return argv[++i];
        return nullptr;
      };
      const auto count = [](const char* v, int lo, const char* what) {
        return static_cast<int>(dsl::read_integer(v, lo, INT_MAX, what));
      };
      if (const char* v = value("--profile")) {
        profile = vigil::parse_profile(v);
      } else if (const char* v = value("--seed")) {
        seed = dsl::read_integer(v, 0, UINT64_MAX, "--seed", 0);
      } else if (const char* v = value("--runs")) {
        runs = count(v, 1, "--runs");
      } else if (const char* v = value("--blocks")) {
        blocks = count(v, 1, "--blocks");
      } else if (const char* v = value("--shrink-budget")) {
        shrink_budget = count(v, 0, "--shrink-budget");
      } else if (const char* v = value("--time-budget")) {
        budget_ns = dsl::parse_duration(v).ns();
      } else if (const char* v = value("--report")) {
        report_path = v;
      } else if (const char* v = value("--repro-dir")) {
        repro_dir = v;
      } else if (const char* v = value("--emit")) {
        emit_dir = v;
      } else if (arg == "--plant-bug") {
        plant_bug = true;
      } else {
        return usage();
      }
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "trio-fuzz: %s\n", e.what());
    return usage();
  }

  if (!emit_dir.empty()) {
    // Generation-only: write each run's schedule as a .faults file.
    for (int i = 0; i < runs; ++i) {
      const std::uint64_t run_seed = seed + std::uint64_t(i);
      const faults::FaultSchedule schedule =
          vigil::generate(run_seed, profile);
      char name[96];
      std::snprintf(name, sizeof(name), "%s/%s-seed%llu.faults",
                    emit_dir.c_str(), vigil::profile_name(profile),
                    static_cast<unsigned long long>(run_seed));
      std::ostringstream os;
      os << "# generated by trio-fuzz --emit: profile="
         << vigil::profile_name(profile) << " seed=" << run_seed << "\n"
         << schedule.to_dsl();
      if (!write_file(name, os.str())) {
        std::fprintf(stderr, "trio-fuzz: cannot write %s\n", name);
        return 1;
      }
      std::printf("emitted %s (%zu events)\n", name, schedule.size());
    }
    return 0;
  }

  const auto start = std::chrono::steady_clock::now();
  const auto wall_ns = [&] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  };

  vigil::Scenario scenario = vigil::profile_scenario(profile, blocks);
  if (plant_bug) scenario.hardening->give_up = sim::Duration::zero();

  std::vector<RunRecord> records;
  int completed = 0;
  int violating = 0;
  bool budget_hit = false;
  for (int i = 0; i < runs; ++i) {
    if (budget_ns >= 0 && wall_ns() >= budget_ns) {
      budget_hit = true;
      break;
    }
    scenario.seed = seed + std::uint64_t(i);
    scenario.schedule = vigil::generate(scenario.seed, profile);
    const vigil::RunReport report = vigil::run_schedule(scenario);
    ++completed;
    RunRecord rec;
    rec.seed = scenario.seed;
    rec.converged = report.converged;
    rec.violations = report.violations;
    rec.events = scenario.schedule.size();
    if (report.ok()) {
      std::printf("run %d seed %llu: ok (%zu events, %d/%d finished)\n", i,
                  static_cast<unsigned long long>(scenario.seed), rec.events,
                  report.finished, report.expected);
      records.push_back(std::move(rec));
      continue;
    }
    ++violating;
    std::printf("run %d seed %llu: VIOLATION (%zu events)\n", i,
                static_cast<unsigned long long>(scenario.seed), rec.events);
    for (const vigil::Violation& v : report.violations) {
      std::printf("  %s at %s: %s\n", v.invariant.c_str(),
                  v.at.to_string().c_str(), v.detail.c_str());
    }
    if (!report.converged) {
      std::printf("  unconverged: %d/%d finished (%d crashed)\n",
                  report.finished, report.expected, report.crashed);
    }

    // Shrink to a minimal repro. The oracle re-runs the same scenario; a
    // candidate "still violates" when the replay is not ok().
    vigil::ShrinkConfig shrink_config;
    shrink_config.max_oracle_calls = shrink_budget;
    const vigil::ShrinkResult shrunk = vigil::shrink(
        scenario.schedule,
        [candidate_run = scenario](
            const faults::FaultSchedule& candidate) mutable {
          candidate_run.schedule = candidate;
          return !vigil::run_schedule(candidate_run).ok();
        },
        shrink_config);
    rec.shrunk_events = shrunk.schedule.size();
    rec.oracle_calls = shrunk.oracle_calls;
    rec.repro_dsl = repro_header(profile, scenario.seed, report.violations) +
                    shrunk.schedule.to_dsl();
    std::printf("  shrunk %zu -> %zu event(s) in %d replay(s)\n", rec.events,
                rec.shrunk_events, rec.oracle_calls);
    if (!repro_dir.empty()) {
      char name[96];
      std::snprintf(name, sizeof(name), "%s/repro-%s-seed%llu.faults",
                    repro_dir.c_str(), vigil::profile_name(profile),
                    static_cast<unsigned long long>(scenario.seed));
      if (write_file(name, rec.repro_dsl)) {
        rec.repro_path = name;
        std::printf("  repro: %s\n", name);
      } else {
        std::fprintf(stderr, "trio-fuzz: cannot write %s\n", name);
      }
    }
    records.push_back(std::move(rec));
  }

  const double wall_ms = double(wall_ns()) / 1e6;
  std::printf("%d/%d run(s), %d violating, %.0f ms wall%s\n", completed,
              runs, violating, wall_ms,
              budget_hit ? " (time budget hit)" : "");

  if (!report_path.empty()) {
    std::ostringstream os;
    os << "{\n"
       << "  \"profile\": \"" << vigil::profile_name(profile) << "\",\n"
       << "  \"base_seed\": " << seed << ",\n"
       << "  \"runs_requested\": " << runs << ",\n"
       << "  \"runs_completed\": " << completed << ",\n"
       << "  \"violating_runs\": " << violating << ",\n"
       << "  \"time_budget_hit\": " << (budget_hit ? "true" : "false")
       << ",\n"
       << "  \"wall_ms\": " << std::int64_t(wall_ms) << ",\n"
       << "  \"planted_bug\": " << (plant_bug ? "true" : "false") << ",\n"
       << "  \"runs\": [\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
      const RunRecord& r = records[i];
      os << "    {\"seed\": " << r.seed << ", \"converged\": "
         << (r.converged ? "true" : "false") << ", \"events\": " << r.events
         << ", \"violations\": [";
      for (std::size_t j = 0; j < r.violations.size(); ++j) {
        os << (j ? ", " : "") << "{\"invariant\": ";
        telemetry::json_string(os, r.violations[j].invariant);
        os << ", \"detail\": ";
        telemetry::json_string(os, r.violations[j].detail);
        os << "}";
      }
      os << "]";
      if (!r.repro_dsl.empty()) {
        os << ", \"shrunk_events\": " << r.shrunk_events
           << ", \"oracle_calls\": " << r.oracle_calls;
        if (!r.repro_path.empty()) {
          os << ", \"repro\": ";
          telemetry::json_string(os, r.repro_path);
        }
      }
      os << "}" << (i + 1 < records.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    if (!write_file(report_path, os.str())) {
      std::fprintf(stderr, "trio-fuzz: cannot write %s\n",
                   report_path.c_str());
      return 1;
    }
    std::printf("report: %s\n", report_path.c_str());
  }
  return violating == 0 ? 0 : 1;
}
