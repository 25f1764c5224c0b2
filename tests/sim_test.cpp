#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <set>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/inline_callback.hpp"
#include "sim/random.hpp"
#include "sim/recycler.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace {

TEST(Time, Arithmetic) {
  const sim::Time t(1000);
  const sim::Duration d = sim::Duration::micros(2);
  EXPECT_EQ((t + d).ns(), 3000);
  EXPECT_EQ(((t + d) - t).ns(), 2000);
  EXPECT_LT(t, t + d);
}

TEST(Time, CycleConversionIsExactAtOneGigahertz) {
  EXPECT_EQ(sim::Duration::cycles(7).ns(), 7);
  EXPECT_EQ(sim::Duration::cycles(3, 500'000'000).ns(), 6);
  // Rounds up: 3 cycles of a 2 GHz clock is 1.5 ns -> 2 ns.
  EXPECT_EQ(sim::Duration::cycles(3, 2'000'000'000).ns(), 2);
}

TEST(Time, Formatting) {
  EXPECT_EQ(sim::Duration::nanos(17).to_string(), "17ns");
  EXPECT_EQ(sim::Duration::micros(2).to_string(), "2.000us");
  EXPECT_EQ(sim::Duration::millis(5).to_string(), "5.000ms");
  EXPECT_EQ(sim::Duration::seconds(3).to_string(), "3.000s");
}

TEST(EventQueue, RunsInTimeOrder) {
  sim::EventQueue q;
  std::vector<int> order;
  q.schedule(sim::Time(30), [&] { order.push_back(3); });
  q.schedule(sim::Time(10), [&] { order.push_back(1); });
  q.schedule(sim::Time(20), [&] { order.push_back(2); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoTieBreakAtSameInstant) {
  sim::EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    q.schedule(sim::Time(5), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop_and_run();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  sim::EventQueue q;
  bool ran = false;
  auto id = q.schedule(sim::Time(10), [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // double-cancel reports false
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, RejectsSchedulingInThePast) {
  sim::EventQueue q;
  q.schedule(sim::Time(100), [] {});
  q.pop_and_run();
  EXPECT_THROW(q.schedule(sim::Time(50), [] {}), std::logic_error);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  sim::EventQueue q;
  auto id = q.schedule(sim::Time(10), [] {});
  q.schedule(sim::Time(20), [] {});
  q.cancel(id);
  EXPECT_EQ(q.next_time(), sim::Time(20));
}

TEST(EventQueue, MatchesOrderedSetModel) {
  // 100 000 seeded random operations, crowded onto four instants past the
  // clock, against an ordered set of the pending (time, key) entries.
  // Cancels hit live, fired and already-cancelled events, so entries
  // leave from the middle of the heap as well as from its top.
  using Entry = std::tuple<std::int64_t, std::uint64_t, int>;  // time, key, label
  sim::EventQueue q;
  sim::Rng rng(0x5eed);
  std::set<Entry> model;
  std::vector<std::pair<sim::EventId, Entry>> issued;  // every schedule()
  std::uint64_t seq = 0;
  std::uint64_t ranked = 0;
  int popped = -1;
  std::size_t deepest = 0;
  for (int label = 0; label < 100'000; ++label) {
    const auto kind = rng.uniform_int(0, 19);
    const sim::Time at = q.now() + sim::Duration(rng.uniform_int(0, 3));
    auto note = [&popped, label] { popped = label; };
    if (kind < 6) {
      const Entry e{at.ns(), ++seq, label};
      issued.emplace_back(q.schedule(at, note), e);
      model.insert(e);
    } else if (kind < 9) {
      // Ranked entries fire after the instant's schedule()d ones, in
      // rank order, whatever order they were pushed in.
      const std::uint64_t rank =
          static_cast<std::uint64_t>(rng.uniform_int(0, 7)) << 32 | ++ranked;
      q.schedule_ranked(at, rank, note);
      model.insert({at.ns(), sim::EventQueue::kRankLimit | rank, label});
    } else if (kind < 12) {
      if (issued.empty()) continue;
      const auto& [id, e] = issued[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(issued.size()) - 1))];
      ASSERT_EQ(q.cancel(id), model.erase(e) == 1) << "op " << label;
    } else if (!model.empty()) {
      const Entry want = *model.begin();
      model.erase(model.begin());
      ASSERT_EQ(q.pop_and_run().ns(), std::get<0>(want)) << "op " << label;
      ASSERT_EQ(popped, std::get<2>(want)) << "op " << label;
      ASSERT_EQ(q.now().ns(), std::get<0>(want));
    }
    ASSERT_EQ(q.size(), model.size()) << "op " << label;
    ASSERT_EQ(q.next_time(), model.empty()
                                 ? sim::Time::max()
                                 : sim::Time(std::get<0>(*model.begin())))
        << "op " << label;
    deepest = std::max(deepest, model.size());
  }
  EXPECT_GT(deepest, 1000u);  // deep enough for several heap levels
  EXPECT_FALSE(q.cancel(sim::EventId{}));
  while (!q.empty()) {
    const Entry want = *model.begin();
    model.erase(model.begin());
    q.pop_and_run();
    ASSERT_EQ(popped, std::get<2>(want));
  }
}

TEST(Simulator, ClockAdvancesWithEvents) {
  sim::Simulator s;
  sim::Time seen;
  s.schedule_in(sim::Duration::micros(5), [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, sim::Time(5000));
  EXPECT_EQ(s.now(), sim::Time(5000));
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  sim::Simulator s;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 10) s.schedule_in(sim::Duration(1), chain);
  };
  s.schedule_in(sim::Duration(1), chain);
  s.run();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(s.now(), sim::Time(10));
}

TEST(Simulator, RunUntilAdvancesClockToDeadline) {
  sim::Simulator s;
  bool late_ran = false;
  s.schedule_in(sim::Duration(100), [&] { late_ran = true; });
  s.run_until(sim::Time(50));
  EXPECT_EQ(s.now(), sim::Time(50));
  EXPECT_FALSE(late_ran);
  s.run_until(sim::Time(200));
  EXPECT_TRUE(late_ran);
}

TEST(Simulator, RejectsSchedulingBeforeNow) {
  // The clock can move past the last event (run_until, advance_to); work
  // scheduled behind it would run with the clock going backwards.
  sim::Simulator s;
  s.schedule_at(sim::Time(10), [] {});
  s.run_until(sim::Time(100));
  EXPECT_THROW(s.schedule_at(sim::Time(50), [] {}), std::logic_error);
  EXPECT_THROW(s.schedule_in(sim::Duration(-1), [] {}), std::logic_error);
  EXPECT_THROW(s.post_delivery(sim::Time(99), 0, 1, [] {}), std::logic_error);
  s.advance_to(sim::Time(200));
  EXPECT_THROW(s.schedule_at(sim::Time(150), [] {}), std::logic_error);
  EXPECT_FALSE(s.pending());
  s.schedule_at(sim::Time(200), [] {});
  EXPECT_EQ(s.run(), 1u);
  EXPECT_EQ(s.now(), sim::Time(200));
}

TEST(Simulator, DeliveriesRunAfterLocalEventsInStampOrder) {
  // The band rule on one simulator. At an instant every local event runs
  // first, FIFO with same-instant cascades; then deliveries in (src, seq)
  // order, each followed by the local work it schedules for that instant.
  sim::Simulator s;
  const sim::Time t(10);
  std::vector<int> order;
  auto note = [&order](int v) { return [&order, v] { order.push_back(v); }; };
  // Posted out of stamp order, and before the local events they follow.
  s.post_delivery(t, 2, 1, note(14));
  s.post_delivery(t, 0, 5, note(12));
  s.post_delivery(t, sim::Simulator::kMaxDomains - 1,
                  (std::uint64_t{1} << sim::Simulator::kSeqBits) - 1,
                  note(15));
  s.post_delivery(t, 1, 3, note(13));
  s.post_delivery(t, 0, 2, [&] {
    order.push_back(10);
    s.schedule_at(t, note(11));
  });
  s.post_delivery(sim::Time(5), 3, 9, note(0));
  s.schedule_at(sim::Time(20), note(30));
  sim::EventId victim;
  s.schedule_at(t, [&] {
    order.push_back(1);
    EXPECT_TRUE(s.cancel(victim));
    EXPECT_FALSE(s.cancel(victim));
    s.schedule_at(t, [&] {
      order.push_back(3);
      s.schedule_at(t, note(4));
    });
  });
  victim = s.schedule_at(t, note(99));
  s.schedule_at(t, note(2));
  // A stamp field too wide for its width is rejected, not wrapped into
  // another stamp's order.
  EXPECT_THROW(s.post_delivery(t, sim::Simulator::kMaxDomains, 1, [] {}),
               std::out_of_range);
  EXPECT_THROW(s.post_delivery(t, 0,
                               std::uint64_t{1} << sim::Simulator::kSeqBits,
                               [] {}),
               std::out_of_range);
  EXPECT_EQ(s.run(), 12u);
  EXPECT_EQ(order,
            (std::vector<int>{0, 1, 2, 3, 4, 10, 11, 12, 13, 14, 15, 30}));
  EXPECT_EQ(s.now(), sim::Time(20));
}

TEST(Recycler, FreedBlockReturnsForItsSizeClass) {
  void* a = sim::recycle_alloc(100);  // the 97..112-byte class
  void* b = sim::recycle_alloc(200);  // the 193..208-byte class
  EXPECT_NE(a, b);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % alignof(std::max_align_t),
            0u);
  sim::recycle_free(a, 100);
  sim::recycle_free(b, 200);
  void* c = sim::recycle_alloc(112);
  void* d = sim::recycle_alloc(193);
  EXPECT_EQ(c, a);
  EXPECT_EQ(d, b);
  sim::recycle_free(c, 112);
  sim::recycle_free(d, 193);
}

TEST(Recycler, BlocksFreedOnAThreadThatExitsAreReleased) {
  // A block freed on another thread joins that thread's lists, which go
  // back to the global allocator when it exits (a leak checker sees any
  // block they keep).
  void* mine = sim::recycle_alloc(48);
  std::vector<void*> theirs;
  std::thread([&] {
    sim::recycle_free(mine, 48);
    for (int i = 0; i < 64; ++i) theirs.push_back(sim::recycle_alloc(48));
    for (void* p : theirs) sim::recycle_free(p, 48);
  }).join();
  ASSERT_FALSE(theirs.empty());
  EXPECT_EQ(theirs.front(), mine);
}

TEST(Recycler, RequestsAboveTheCapBypassTheLists) {
  constexpr std::size_t kTop = sim::kRecycleMaxBytes;
  void* top = sim::recycle_alloc(kTop);
  sim::recycle_free(top, kTop);  // heads the largest class's list
  void* big = sim::recycle_alloc(kTop + 1);
  EXPECT_NE(big, top);           // not served from that list…
  sim::recycle_free(big, kTop + 1);
  void* again = sim::recycle_alloc(kTop);
  EXPECT_EQ(again, top);         // …nor parked on it
  sim::recycle_free(again, kTop);
}

TEST(InlineFunction, TriviallyCopyableClosureSurvivesMoves) {
  // The PPE's [this, slot] shape: no manager, so moves copy the inline
  // bytes and destruction does nothing.
  int target = 0;
  const std::uint64_t a = 0x1122334455667788ull;
  const std::uint32_t b = 77;
  auto closure = [p = &target, a, b] { *p += int(a % 1000) + int(b); };
  static_assert(std::is_trivially_copyable_v<decltype(closure)>);
  static_assert(sim::InlineCallback::stores_inline<decltype(closure)>());
  sim::InlineCallback f(closure);
  sim::InlineCallback g(std::move(f));
  sim::InlineCallback h(std::move(g));
  EXPECT_FALSE(f);
  EXPECT_FALSE(g);
  sim::InlineCallback i([] {});
  i = std::move(h);  // over another trivial closure
  sim::InlineCallback j;
  j = std::move(i);  // over an empty one
  EXPECT_FALSE(h);
  EXPECT_FALSE(i);
  ASSERT_TRUE(j);
  j();
  j();
  EXPECT_EQ(target, 2 * (int(a % 1000) + int(b)));
}

/// Owns a count of its destructions: moved-from copies count nothing.
struct CountedToken {
  explicit CountedToken(int* destroyed) : destroyed(destroyed) {}
  CountedToken(CountedToken&& other) noexcept
      : destroyed(std::exchange(other.destroyed, nullptr)) {}
  CountedToken& operator=(CountedToken&&) = delete;
  ~CountedToken() {
    if (destroyed != nullptr) ++*destroyed;
  }
  int* destroyed;
};

TEST(InlineFunction, OwningClosureIsDestroyedOnceAcrossMoves) {
  int destroyed = 0;
  int calls = 0;
  auto owning = [&calls, &destroyed] {
    return [&calls, t = CountedToken(&destroyed)] {
      calls += t.destroyed != nullptr;
    };
  };
  static_assert(!std::is_trivially_copyable_v<decltype(owning())>);
  static_assert(sim::InlineCallback::stores_inline<decltype(owning())>());
  {
    sim::InlineCallback f(owning());
    EXPECT_EQ(destroyed, 0) << "construction moves the temporary only";
    sim::InlineCallback g(std::move(f));
    sim::InlineCallback h(owning());
    h = std::move(g);  // destroys h's own token
    EXPECT_EQ(destroyed, 1);
    h();
    EXPECT_EQ(calls, 1);
    h = nullptr;  // reset
    EXPECT_EQ(destroyed, 2);
    sim::InlineCallback k(owning());
  }  // k's destructor
  EXPECT_EQ(destroyed, 3);

  // Too big to store inline: one heap cell, moved by pointer.
  auto big = [&calls, t = CountedToken(&destroyed),
              pad = std::array<char, 96>{}] {
    calls += t.destroyed != nullptr && pad[0] == 0;
  };
  static_assert(!sim::InlineCallback::stores_inline<decltype(big)>());
  {
    sim::InlineCallback f(std::move(big));
    sim::InlineCallback g(std::move(f));
    sim::InlineCallback h;
    h = std::move(g);
    h();
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(destroyed, 3);
  }
  EXPECT_EQ(destroyed, 4);
}

TEST(Rng, DeterministicForSeed) {
  sim::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  sim::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformBoundsRespected) {
  sim::Rng r(7);
  for (int i = 0; i < 10'000; ++i) {
    const double v = r.uniform(0.5, 2.0);
    EXPECT_GE(v, 0.5);
    EXPECT_LT(v, 2.0);
  }
}

TEST(Rng, NextBelowUnbiasedEnough) {
  sim::Rng r(9);
  std::array<int, 6> hist{};
  for (int i = 0; i < 60'000; ++i) ++hist[r.next_below(6)];
  for (int h : hist) EXPECT_NEAR(h, 10'000, 500);
}

TEST(Rng, BernoulliMatchesProbability) {
  sim::Rng r(11);
  int hits = 0;
  for (int i = 0; i < 100'000; ++i) hits += r.bernoulli(0.16) ? 1 : 0;
  EXPECT_NEAR(hits / 100'000.0, 0.16, 0.01);
}

TEST(Rng, ExponentialHasRequestedMean) {
  sim::Rng r(13);
  double sum = 0;
  for (int i = 0; i < 100'000; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / 100'000.0, 5.0, 0.15);
}

TEST(Stats, SummaryMoments) {
  sim::Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), 1.29099, 1e-4);
}

TEST(Stats, Percentiles) {
  sim::Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50);
  EXPECT_DOUBLE_EQ(s.percentile(99), 99);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100);
}

TEST(Stats, EmptySamplesSafe) {
  sim::Samples s;
  EXPECT_EQ(s.percentile(50), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
}

}  // namespace
