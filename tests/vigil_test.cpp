// Chaos fuzzing pipeline (src/vigil/, docs/vigil.md).
//
// Covers the seeded scenario generator (determinism, DSL round-trip,
// validity of everything it emits), schedule validation rejections, the
// checked-in fuzz corpus (every schedule must replay with zero invariant
// violations — the tier-1 robustness gate), the ddmin shrinker against a
// synthetic oracle, and the full planted-bug pipeline: a historical
// wedge re-introduced, caught by the watchdog, and shrunk to a repro of
// a handful of events.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "faults/schedule.hpp"
#include "vigil/generator.hpp"
#include "vigil/runner.hpp"
#include "vigil/shrink.hpp"

namespace {

using faults::FaultSchedule;
using vigil::Profile;

const Profile kProfiles[] = {Profile::kFailover, Profile::kJobs,
                             Profile::kNetRpc, Profile::kFluid};

std::string corpus_path(const std::string& file) {
  return std::string(TRIO_SOURCE_DIR) + "/tests/corpus/" + file;
}

std::string corpus_file(Profile profile, int seed) {
  std::ostringstream os;
  os << vigil::profile_name(profile) << "-seed" << seed << ".faults";
  return os.str();
}

/// Runs `scenario` against `schedule` instead of its own.
vigil::RunReport replay(vigil::Scenario scenario,
                        const FaultSchedule& schedule) {
  scenario.schedule = schedule;
  return vigil::run_schedule(scenario);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// --- Generator -------------------------------------------------------------

TEST(Generator, SameSeedSameSchedule) {
  for (Profile p : kProfiles) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const FaultSchedule a = vigil::generate(seed, p);
      const FaultSchedule b = vigil::generate(seed, p);
      EXPECT_EQ(a.to_dsl(), b.to_dsl())
          << vigil::profile_name(p) << " seed " << seed;
    }
  }
}

TEST(Generator, DistinctSeedsExploreDistinctSchedules) {
  // Not a tautology — a broken PRNG hookup would collapse every seed to
  // one schedule. A handful of distinct seeds must differ somewhere.
  int distinct = 0;
  const std::string first = vigil::generate(1, Profile::kFailover).to_dsl();
  for (std::uint64_t seed = 2; seed <= 16; ++seed) {
    if (vigil::generate(seed, Profile::kFailover).to_dsl() != first) {
      ++distinct;
    }
  }
  EXPECT_GT(distinct, 10);
}

TEST(Generator, EverySchedulePassesValidateAndRoundTripsThroughDsl) {
  for (Profile p : kProfiles) {
    const vigil::ScenarioShape shape = vigil::profile_shape(p);
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
      const FaultSchedule s = vigil::generate(seed, p);
      EXPECT_GE(s.size(), 1u);
      // Contract: generated schedules are always valid...
      EXPECT_NO_THROW(s.validate(&shape.tenants))
          << vigil::profile_name(p) << " seed " << seed;
      // ...and survive a .faults round trip bit-identically, so a
      // written repro replays the exact same scenario.
      const FaultSchedule reparsed = FaultSchedule::parse(s.to_dsl());
      EXPECT_EQ(s.to_dsl(), reparsed.to_dsl())
          << vigil::profile_name(p) << " seed " << seed;
    }
  }
}

// --- Schedule validation rejections ---------------------------------------

TEST(Validate, RejectsUndeclaredTenant) {
  const FaultSchedule s =
      FaultSchedule::parse("at 10us drop-buckets leaf:0 tenant=9\n");
  const std::vector<int> declared = {1, 2};
  try {
    s.validate(&declared);
    FAIL() << "undeclared tenant accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("tenant=9"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
}

TEST(Validate, RejectsUnpairedRevive) {
  const FaultSchedule s = FaultSchedule::parse("at 10us revive leaf:0\n");
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(Validate, RejectsOverlappingKillWindows) {
  const FaultSchedule s = FaultSchedule::parse(
      "at 10us kill leaf:0\n"
      "at 20us kill leaf:0\n"
      "at 30us revive leaf:0\n");
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(Validate, RejectsRestartWithNoOpenCrash) {
  const FaultSchedule s = FaultSchedule::parse("at 10us restart worker:1\n");
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(Validate, AcceptsPairedWindows) {
  const FaultSchedule s = FaultSchedule::parse(
      "at 10us kill leaf:0\n"
      "at 30us revive leaf:0\n"
      "at 10us crash worker:1\n"
      "at 40us restart worker:1\n");
  EXPECT_NO_THROW(s.validate());
}

// --- The checked-in corpus -------------------------------------------------

TEST(Corpus, CorpusMatchesGenerator) {
  // The corpus is a snapshot of generate(seed, profile); this pins the
  // two together so a grammar change forces a corpus regeneration (the
  // MANIFEST documents how).
  for (Profile p : kProfiles) {
    for (int seed = 1; seed <= 4; ++seed) {
      const std::string text = read_file(corpus_path(corpus_file(p, seed)));
      const FaultSchedule checked_in = FaultSchedule::parse(text);
      const FaultSchedule generated =
          vigil::generate(std::uint64_t(seed), p);
      EXPECT_EQ(checked_in.to_dsl(), generated.to_dsl())
          << corpus_file(p, seed) << " drifted from the generator; "
          << "regenerate per tests/corpus/MANIFEST";
    }
  }
}

TEST(Corpus, CorpusReplaysClean) {
  // The robustness gate: every corpus schedule must converge with zero
  // invariant violations on its profile's canonical topology.
  for (Profile p : kProfiles) {
    for (int seed = 1; seed <= 4; ++seed) {
      vigil::Scenario sc = vigil::profile_scenario(p);
      sc.seed = std::uint64_t(seed);
      sc.schedule = FaultSchedule::parse(
          read_file(corpus_path(corpus_file(p, seed))));
      const vigil::RunReport rep = vigil::run_schedule(sc);
      EXPECT_TRUE(rep.converged)
          << corpus_file(p, seed) << ": " << rep.finished << "/"
          << rep.expected << " finished, " << rep.crashed << " crashed";
      for (const vigil::Violation& v : rep.violations) {
        ADD_FAILURE() << corpus_file(p, seed) << ": " << v.invariant
                      << " at " << v.at.to_string() << ": " << v.detail;
      }
    }
  }
}

// --- Shrinker --------------------------------------------------------------

TEST(Shrink, DdminFindsTheOneGuiltyEvent) {
  // Synthetic oracle: the violation is "the schedule stalls leaf 1".
  // Buried among 7 innocent events, ddmin must isolate exactly it.
  FaultSchedule s;
  s.flap(sim::Time() + sim::Duration::micros(10),
         FaultSchedule::host_link(0), sim::Duration::micros(50));
  s.iid_loss(sim::Time() + sim::Duration::micros(20),
             FaultSchedule::fabric_link(0), 0.1,
             sim::Duration::micros(200), /*seed=*/7);
  s.crash(sim::Time() + sim::Duration::micros(30), /*worker=*/1);
  s.restart(sim::Time() + sim::Duration::micros(90), /*worker=*/1);
  s.stall(sim::Time() + sim::Duration::micros(40),
          FaultSchedule::leaf_router(1), sim::Duration::micros(80));
  s.kill(sim::Time() + sim::Duration::micros(50),
         FaultSchedule::leaf_router(0));
  s.revive(sim::Time() + sim::Duration::micros(100),
           FaultSchedule::leaf_router(0));

  int calls = 0;
  const vigil::Oracle oracle = [&](const FaultSchedule& candidate) {
    ++calls;
    // Candidates must always be semantically valid (repaired pairs).
    candidate.validate();
    for (const faults::FaultEvent& e : candidate.events()) {
      if (e.kind == faults::FaultKind::kRouterStall &&
          e.target.kind == faults::TargetKind::kLeafRouter &&
          e.target.index == 1) {
        return true;
      }
    }
    return false;
  };
  const vigil::ShrinkResult result = vigil::shrink(s, oracle);
  EXPECT_TRUE(result.reduced);
  ASSERT_EQ(result.schedule.size(), 1u);
  EXPECT_EQ(result.schedule.events()[0].kind, faults::FaultKind::kRouterStall);
  EXPECT_EQ(result.oracle_calls, calls);
}

TEST(Shrink, NarrowsWindowsAndLowersIntensity) {
  FaultSchedule s;
  s.iid_loss(sim::Time() + sim::Duration::micros(10),
             FaultSchedule::host_link(0), 0.2, sim::Duration::millis(4),
             /*seed=*/3);
  const vigil::Oracle oracle = [](const FaultSchedule& candidate) {
    return !candidate.empty();  // any loss at all still "violates"
  };
  const vigil::ShrinkResult result = vigil::shrink(s, oracle);
  ASSERT_EQ(result.schedule.size(), 1u);
  const faults::FaultEvent& e = result.schedule.events()[0];
  EXPECT_LT(e.duration.ns(), sim::Duration::millis(4).ns());
  EXPECT_LT(e.probability, 0.2);
  EXPECT_GE(e.probability, 0.01);
}

TEST(Shrink, RespectsOracleBudget) {
  FaultSchedule s;
  for (int i = 0; i < 8; ++i) {
    s.flap(sim::Time() + sim::Duration::micros(10 * (i + 1)),
           FaultSchedule::host_link(i % 4), sim::Duration::micros(50));
  }
  int calls = 0;
  const vigil::Oracle oracle = [&](const FaultSchedule&) {
    ++calls;
    return true;
  };
  vigil::ShrinkConfig config;
  config.max_oracle_calls = 5;
  vigil::shrink(s, oracle, config);
  EXPECT_LE(calls, 5);
}

// --- Planted bug: the pipeline end to end ----------------------------------

TEST(PlantedBug, CaughtByWatchdogAndShrunkToTinyRepro) {
  // Seed 16 of the failover grammar permanently kills an aggregation
  // path; with the give-up path disabled (a zero give-up grace, the
  // re-introduced historical wedge) workers stall forever and the
  // watchdog trips.
  vigil::Scenario planted = vigil::profile_scenario(Profile::kFailover);
  planted.seed = 16;
  planted.schedule = vigil::generate(16, Profile::kFailover);
  planted.hardening->give_up = sim::Duration::zero();

  const vigil::RunReport report = vigil::run_schedule(planted);
  ASSERT_FALSE(report.ok()) << "planted bug did not reproduce";

  const vigil::Oracle oracle = [&](const FaultSchedule& candidate) {
    return !replay(planted, candidate).ok();
  };
  const vigil::ShrinkResult result = vigil::shrink(planted.schedule, oracle);
  EXPECT_TRUE(result.reduced);
  EXPECT_LE(result.schedule.size(), 5u);  // the acceptance bar
  // The repro is replayable: still valid, still violating...
  EXPECT_NO_THROW(result.schedule.validate());
  EXPECT_FALSE(replay(planted, result.schedule).ok());
  // ...and the bug is really the *absence of give-up*: the same minimal
  // schedule on the fixed runtime completes cleanly degraded.
  vigil::Scenario fixed = planted;
  fixed.hardening = vigil::Hardening{};
  EXPECT_TRUE(replay(fixed, result.schedule).ok());
}

}  // namespace
