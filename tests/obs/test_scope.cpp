// obs::Scope contracts: one histogram sample per scope, exactly one span
// (with the caller's args) when tracing is on, perf args and rollups under
// --perf, nothing at all with tracing and perf off, and a bounded arg
// list.  Then the naming contract over a real sweep: every span name a run
// drains has its `<name>.micros` histogram, grown by exactly its span
// count, and its `<name>.perf.*` rollup.
#include "obs/scope.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <thread>

#include "engine/scenario.hpp"
#include "engine/sweep.hpp"
#include "store/result_store.hpp"

namespace sysgo::obs {
namespace {

/// Restores the trace and perf switches, and rewinds the rings, so test
/// order never leaks recording state between cases.
class ScopeTest : public ::testing::Test {
 protected:
  void SetUp() override { trace::reset_for_testing(); }
  void TearDown() override {
    trace::set_enabled(false);
    perf::set_enabled(false);
    trace::reset_for_testing();
  }

  /// The events recorded on the lane named `lane`, or none.
  static std::vector<trace::Event> lane_events(const trace::TraceDump& dump,
                                               const std::string& lane) {
    for (const trace::LaneDump& l : dump.lanes)
      if (l.name == lane) return l.events;
    return {};
  }

  /// Burns about `ms` of CPU so task-clock deltas are nonzero.
  static void spin(double ms) {
    volatile std::uint64_t sink = 0;
    const WallTimer timer;
    while (timer.millis() < ms)
      for (int i = 0; i < 1000; ++i)
        sink = sink + static_cast<std::uint64_t>(i) * i;
  }
};

TEST_F(ScopeTest, RecordsOneMicrosSampleOnDestruction) {
  static const ScopeSite site("test.scope.timed");
  Histogram& h = histogram("test.scope.timed.micros");
  h.reset();
  { const Scope scope(site); }
  EXPECT_EQ(h.aggregate().count, 1u);
}

TEST_F(ScopeTest, TracedScopeEmitsOneSpanWithTheCallersArgs) {
  static const ScopeSite site("test.scope.traced");
  trace::set_enabled(true);
  std::thread([] {
    trace::set_this_lane_name("test-scope-traced");
    Scope scope(site);
    EXPECT_TRUE(scope.traced());
    scope.arg("d", 3);
    scope.arg("family", "db");
  }).join();
  const trace::TraceDump dump = trace::drain();
  const auto events = lane_events(dump, "test-scope-traced");
  ASSERT_EQ(events.size(), 1u);
  const trace::Event& e = events[0];
  EXPECT_EQ(e.kind, trace::EventKind::kComplete);
  EXPECT_EQ(dump.strings[e.name], "test.scope.traced");
  ASSERT_EQ(e.arg_count, 2u);
  EXPECT_EQ(dump.strings[e.arg_keys[0]], "d");
  EXPECT_EQ(e.arg_vals[0], 3);
  EXPECT_EQ(e.str_mask, 0b10);
  EXPECT_EQ(dump.strings[e.arg_keys[1]], "family");
  EXPECT_EQ(dump.strings[static_cast<trace::NameId>(e.arg_vals[1])], "db");
}

TEST_F(ScopeTest, PerfChargesTheRollupAndAddsSpanArgs) {
  static const ScopeSite site("test.scope.perf");
  perf::set_enabled(true);
  trace::set_enabled(true);
  bool software = false;
  Counter& clock = counter("test.scope.perf.perf.task_clock_us");
  const std::uint64_t before = clock.value();
  std::thread([&] {
    trace::set_this_lane_name("test-scope-perf");
    software = perf::available().software;
    Scope scope(site);
    scope.arg("k", 1);
    spin(10.0);
  }).join();
  if (!software) GTEST_SKIP() << "no software counter access here";
  EXPECT_GT(clock.value(), before);
  const trace::TraceDump dump = trace::drain();
  const auto events = lane_events(dump, "test-scope-perf");
  ASSERT_EQ(events.size(), 1u);
  // The caller's arg first, then the perf args (task_clock_us at least).
  ASSERT_GE(events[0].arg_count, 2u);
  EXPECT_EQ(dump.strings[events[0].arg_keys[0]], "k");
  bool has_clock = false;
  for (std::size_t a = 1; a < events[0].arg_count; ++a)
    if (dump.strings[events[0].arg_keys[a]] == "task_clock_us") {
      has_clock = true;
      EXPECT_GT(events[0].arg_vals[a], 0);
    }
  EXPECT_TRUE(has_clock);
}

TEST_F(ScopeTest, EmitsNoEventWithTracingAndPerfOff) {
  static const ScopeSite site("test.scope.quiet");
  Counter& clock = counter("test.scope.quiet.perf.task_clock_us");
  const std::uint64_t before = clock.value();
  std::thread([] {
    trace::set_this_lane_name("test-scope-quiet");
    Scope scope(site);
    EXPECT_FALSE(scope.traced());
    scope.arg("ignored", 1);
    spin(1.0);
  }).join();
  EXPECT_TRUE(lane_events(trace::drain(), "test-scope-quiet").empty());
  EXPECT_EQ(clock.value(), before);
}

TEST_F(ScopeTest, ArgsBeyondMaxArgsAreDropped) {
  static const ScopeSite site("test.scope.full");
  trace::set_enabled(true);
  std::thread([] {
    trace::set_this_lane_name("test-scope-full");
    Scope scope(site);
    for (int i = 0; i < 3 * static_cast<int>(trace::kMaxArgs); ++i)
      scope.arg(std::to_string(i), i);
  }).join();
  const trace::TraceDump dump = trace::drain();
  const auto events = lane_events(dump, "test-scope-full");
  ASSERT_EQ(events.size(), 1u);
  ASSERT_EQ(events[0].arg_count, trace::kMaxArgs);
  for (std::size_t a = 0; a < trace::kMaxArgs; ++a) {
    EXPECT_EQ(dump.strings[events[0].arg_keys[a]], std::to_string(a));
    EXPECT_EQ(events[0].arg_vals[a], static_cast<std::int64_t>(a));
  }
}

std::uint64_t histogram_count(const Snapshot& snap, const std::string& name) {
  for (const HistogramSample& h : snap.histograms)
    if (h.name == name) return h.agg.count;
  return 0;
}

bool has_counter(const Snapshot& snap, const std::string& name) {
  for (const CounterSample& c : snap.counters)
    if (c.name == name) return true;
  return false;
}

TEST_F(ScopeTest, EverySpanNameHasItsHistogramAndPerfRollup) {
  using engine::Task;
  const std::string path = ::testing::TempDir() + "sysgo_scope_naming.store";
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());

  engine::ScenarioSpec spec;
  spec.families = {topology::Family::kDeBruijn};
  spec.degrees = {2};
  spec.dimensions = {3};
  spec.periods = {4};
  spec.tasks = {Task::kBound,       Task::kSimulate,       Task::kAudit,
                Task::kSolveGossip, Task::kSolveBroadcast, Task::kSynthesize};
  spec.limits.solve_max_states = 20'000;  // DB(2,3) gossip: stop early
  spec.limits.synth_restarts = 2;
  spec.limits.synth_iterations = 200;

  const Snapshot before = snapshot();
  trace::set_enabled(true);
  perf::set_enabled(true);
  {
    store::ResultStore store(path);
    engine::SweepOptions opts;
    opts.threads = 4;
    opts.store = &store;
    opts.resume = true;  // every job looks up (a miss), runs, inserts
    engine::SweepRunner runner(opts);
    EXPECT_EQ(runner.run(spec).size(), 6u);
  }  // the runner joins its pool: every scope has closed
  perf::set_enabled(false);
  trace::set_enabled(false);
  const trace::TraceDump dump = trace::drain();
  const Snapshot after = snapshot();
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());

  std::map<std::string, std::uint64_t> spans;
  for (const trace::LaneDump& lane : dump.lanes) {
    EXPECT_EQ(lane.dropped, 0u) << lane.name;
    for (const trace::Event& e : lane.events)
      if (e.kind == trace::EventKind::kComplete) ++spans[dump.strings[e.name]];
  }
  for (const char* name :
       {"engine.task.bound", "engine.task.simulate", "engine.task.audit",
        "engine.task.solve-gossip", "engine.task.solve-broadcast",
        "engine.task.synth", "search.solve", "search.layer",
        "synth.synthesize", "synth.restart", "store.lookup", "store.insert",
        "pool.task"})
    EXPECT_GT(spans[name], 0u) << name;
  for (const auto& [name, count] : spans) {
    EXPECT_EQ(histogram_count(after, name + ".micros") -
                  histogram_count(before, name + ".micros"),
              count)
        << name;
    EXPECT_TRUE(has_counter(after, name + ".perf.task_clock_us")) << name;
  }
}

}  // namespace
}  // namespace sysgo::obs
