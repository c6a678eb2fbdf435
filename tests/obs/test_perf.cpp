// perf_event profiling contracts: disabled profiling is a strict no-op,
// multiplex scaling is exact at the boundary cases, the software
// task-clock (available even in PMU-less containers) stays inside sane
// wall-clock bounds, and — the load-bearing guarantee — sweep records are
// byte-identical with --perf on and off.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/scenario.hpp"
#include "engine/sweep.hpp"
#include "io/sweep_io.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "obs/wall_timer.hpp"

namespace sysgo::obs::perf {
namespace {

/// Restores the global perf switch on scope exit so test order never
/// leaks profiling state between cases.
struct PerfSwitchGuard {
  const bool was = enabled();
  ~PerfSwitchGuard() { set_enabled(was); }
};

TEST(PerfScale, BoundaryCases) {
  // Never scheduled: report nothing rather than extrapolate from nothing.
  EXPECT_EQ(scale_value(1000, 500, 0), 0u);
  // Fully scheduled: raw value passes through exactly.
  EXPECT_EQ(scale_value(1000, 500, 500), 1000u);
  EXPECT_EQ(scale_value(1000, 0, 0), 0u);
  // running > enabled (clock skew inside the kernel): still the raw value.
  EXPECT_EQ(scale_value(1000, 500, 600), 1000u);
}

TEST(PerfScale, LinearExtrapolation) {
  // Scheduled half the time: the estimate doubles.
  EXPECT_EQ(scale_value(1000, 1000, 500), 2000u);
  // Quarter of the time: x4.
  EXPECT_EQ(scale_value(250, 1000, 250), 1000u);
}

TEST(Perf, DisabledIsANoOp) {
  PerfSwitchGuard guard;
  set_enabled(false);
  const Sample s = read_sample();
  EXPECT_EQ(s.cycles, 0u);
  EXPECT_EQ(s.instructions, 0u);
  EXPECT_EQ(s.task_clock_ns, 0u);
}

TEST(Perf, AvailabilityIsStablePerThread) {
  PerfSwitchGuard guard;
  set_enabled(true);
  const Availability a = available();
  const Availability b = available();
  EXPECT_EQ(a.hardware, b.hardware);
  EXPECT_EQ(a.software, b.software);
}

TEST(Perf, TaskClockTracksBusyWallTime) {
  PerfSwitchGuard guard;
  set_enabled(true);
  if (!available().software)
    GTEST_SKIP() << "no software counter access in this environment";
  const Sample before = read_sample();
  const WallTimer timer;
  // Busy work the optimizer cannot drop; runs a few milliseconds.
  volatile std::uint64_t sink = 0;
  while (timer.millis() < 20.0)
    for (int i = 0; i < 1000; ++i)
      sink = sink + static_cast<std::uint64_t>(i) * i;
  const double wall_ns = timer.millis() * 1e6;
  const Sample after = read_sample();
  ASSERT_GE(after.task_clock_ns, before.task_clock_ns);
  const auto busy_ns = after.task_clock_ns - before.task_clock_ns;
  // The load-bearing sanity bound: one thread's task clock can never
  // exceed its wall time (plus slack for timer granularity).  The lower
  // bound only demands the clock advanced — under ctest -j on a small
  // machine the spinner may get an arbitrarily thin CPU share.
  EXPECT_GT(busy_ns, 0u);
  EXPECT_LT(static_cast<double>(busy_ns), wall_ns * 1.5 + 5e6);
}

}  // namespace
}  // namespace sysgo::obs::perf

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

std::vector<std::string> timeless_rows(const std::vector<SweepRecord>& recs) {
  std::vector<std::string> rows;
  rows.reserve(recs.size());
  for (SweepRecord r : recs) {
    r.millis = 0.0;
    rows.push_back(io::sweep_csv_row(r));
  }
  return rows;
}

TEST(PerfSweep, RecordsAreIdenticalWithPerfOnAndOff) {
  // The --perf analog of the metrics/tracing byte-identity contract:
  // counter collection must never feed results.
  const ScenarioSpec spec = small_spec();
  obs::perf::set_enabled(true);
  const auto on = SweepRunner().run(spec);
  obs::perf::set_enabled(false);
  const auto off = SweepRunner().run(spec);
  ASSERT_EQ(on.size(), off.size());
  for (std::size_t i = 0; i < on.size(); ++i)
    EXPECT_TRUE(same_result(on[i], off[i])) << "record " << i << " diverged";
  EXPECT_EQ(timeless_rows(on), timeless_rows(off));
}

TEST(PerfSweep, TaskRollupsAppearInSnapshot) {
  // The engine registers its per-task perf rollups eagerly, so the names
  // are in the catalog even before (or without) any profiled run.
  const auto snap = obs::snapshot();
  bool found = false;
  for (const auto& c : snap.counters)
    if (c.name == "engine.task.simulate.perf.task_clock_us") found = true;
  EXPECT_TRUE(found);
}

TEST(PerfSweep, ProfiledRunChargesTaskRollups) {
  obs::perf::set_enabled(true);
  const auto avail = obs::perf::available();
  if (!avail.software && !avail.hardware) {
    obs::perf::set_enabled(false);
    GTEST_SKIP() << "no counter access in this environment";
  }
  obs::Counter& clock =
      obs::counter("engine.task.simulate.perf.task_clock_us");
  const std::uint64_t before = clock.value();
  ScenarioSpec spec = small_spec();
  spec.tasks = {Task::kSimulate};
  (void)SweepRunner(SweepOptions{}).run(spec);
  obs::perf::set_enabled(false);
  if (avail.software) {
    EXPECT_GT(clock.value(), before);
  }
}

}  // namespace
}  // namespace sysgo::engine
