// Sweep-level guarantees of the obs layer: metrics NEVER feed results
// (records are identical with collection on or off), and the engine's
// instrumentation actually counts what ran.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/scenario.hpp"
#include "engine/sweep.hpp"
#include "io/sweep_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sysgo::engine {
namespace {

ScenarioSpec small_spec() {
  ScenarioSpec spec;
  spec.families = {topology::Family::kDeBruijn, topology::Family::kKautz};
  spec.degrees = {2};
  spec.dimensions = {3, 4};
  spec.tasks = {Task::kBound, Task::kSimulate, Task::kAudit};
  return spec;
}

/// CSV rows with the wall-clock column zeroed: everything the obs on/off
/// comparison must hold byte-identical.
std::vector<std::string> timeless_rows(const std::vector<SweepRecord>& recs) {
  std::vector<std::string> rows;
  rows.reserve(recs.size());
  for (SweepRecord r : recs) {
    r.millis = 0.0;
    rows.push_back(io::sweep_csv_row(r));
  }
  return rows;
}

TEST(ObsSweep, RecordsAreIdenticalWithMetricsOnAndOff) {
  const ScenarioSpec spec = small_spec();
  obs::set_enabled(true);
  const auto on = SweepRunner().run(spec);
  obs::set_enabled(false);
  const auto off = SweepRunner().run(spec);
  obs::set_enabled(true);
  ASSERT_EQ(on.size(), off.size());
  for (std::size_t i = 0; i < on.size(); ++i)
    EXPECT_TRUE(same_result(on[i], off[i])) << "record " << i << " diverged";
  EXPECT_EQ(timeless_rows(on), timeless_rows(off));
}

TEST(ObsSweep, RecordsAreIdenticalWithTracingOnAndOff) {
  // The tracing analog of the metrics contract: span recording must never
  // feed results.  A threaded run exercises the pool.task and per-task
  // spans while the records stay byte-identical.
  const ScenarioSpec spec = small_spec();
  SweepOptions opts;
  opts.threads = 4;
  obs::trace::set_enabled(true);
  const auto on = SweepRunner(opts).run(spec);
  obs::trace::set_enabled(false);
  const auto off = SweepRunner(opts).run(spec);
  ASSERT_EQ(on.size(), off.size());
  for (std::size_t i = 0; i < on.size(); ++i)
    EXPECT_TRUE(same_result(on[i], off[i])) << "record " << i << " diverged";
  EXPECT_EQ(timeless_rows(on), timeless_rows(off));
  // And the traced run actually recorded engine spans.
  const auto dump = obs::trace::drain();
  std::size_t engine_spans = 0;
  for (const auto& lane : dump.lanes)
    for (const auto& e : lane.events)
      if (e.name < dump.strings.size() &&
          dump.strings[e.name].rfind("engine.task.", 0) == 0)
        ++engine_spans;
  EXPECT_GT(engine_spans, 0u);
  obs::trace::reset_for_testing();
}

TEST(ObsSweep, EngineCountersTrackCompletedJobs) {
  obs::Counter& completed = obs::counter("engine.jobs_completed");
  const std::uint64_t before = completed.value();
  const ScenarioSpec spec = small_spec();
  const auto records = SweepRunner().run(spec);
  EXPECT_EQ(completed.value() - before, records.size());
}

TEST(ObsSweep, TaskHistogramsMatchTaskCounts) {
  obs::Histogram& sim = obs::histogram("engine.task.simulate.micros");
  const std::uint64_t before = sim.aggregate().count;
  ScenarioSpec spec = small_spec();
  spec.tasks = {Task::kSimulate};
  const auto records = SweepRunner().run(spec);
  EXPECT_EQ(sim.aggregate().count - before, records.size());
}

TEST(ObsSweep, CacheCountersMirrorRunnerStats) {
  obs::Counter& hits = obs::counter("engine.cache.hits");
  obs::Counter& misses = obs::counter("engine.cache.misses");
  const std::uint64_t hits_before = hits.value();
  const std::uint64_t misses_before = misses.value();
  SweepRunner runner;
  (void)runner.run(small_spec());
  const auto stats = runner.cache_stats();
  EXPECT_EQ(hits.value() - hits_before, stats.hits);
  EXPECT_EQ(misses.value() - misses_before, stats.misses);
}

}  // namespace
}  // namespace sysgo::engine
