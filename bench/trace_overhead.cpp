// Tracing overhead guard: the same sweep and synthesis workloads run with
// span recording OFF (the default: one relaxed atomic load per obs::Scope)
// and ACTIVELY RECORDING (every scope's span and the pool's flow arrows
// land in the per-lane rings), interleaved rep by rep so machine drift
// hits both arms equally.  The src/obs/ contract pins the
// actively-recording delta under 3% — spans are per task / per restart /
// per BFS layer / per pool closure, never per inner-loop step, and a ring
// write is a handful of relaxed stores.  Rings are rewound between reps
// so the recording arm pays steady-state cost, not allocation.  The
// workloads are also registered as google benchmarks for
// BENCH_trace_overhead.json.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <cstdio>
#include <vector>

#include "engine/scenario.hpp"
#include "engine/sweep.hpp"
#include "obs/trace.hpp"
#include "obs/wall_timer.hpp"
#include "synth/synthesizer.hpp"
#include "topology/topology.hpp"

namespace {

namespace engine = sysgo::engine;
namespace trace = sysgo::obs::trace;

std::vector<engine::SweepRecord> simulate_sweep() {
  engine::ScenarioSpec spec;
  spec.families = {sysgo::topology::Family::kDeBruijn,
                   sysgo::topology::Family::kKautz};
  spec.degrees = {2};
  spec.dimensions = {3, 4, 5};
  spec.tasks = {engine::Task::kSimulate, engine::Task::kAudit};
  engine::SweepOptions opts;
  opts.threads = 1;  // serial: the purest view of per-event overhead
  engine::SweepRunner runner(opts);
  return runner.run_jobs(spec.expand(), spec.limits);
}

sysgo::synth::SynthResult synthesize_small() {
  sysgo::synth::SynthOptions opts;
  opts.restarts = 2;
  opts.iterations = 400;
  opts.threads = 1;
  return sysgo::synth::synthesize(
      sysgo::topology::make_family(sysgo::topology::Family::kDeBruijn, 2, 3),
      opts);
}

template <class Fn>
double timed_millis(bool trace_on, const Fn& fn) {
  trace::set_enabled(trace_on);
  const sysgo::obs::WallTimer timer;
  benchmark::DoNotOptimize(fn());
  const double ms = timer.millis();
  trace::set_enabled(false);
  trace::reset_for_testing();  // rewind rings: steady-state cost per rep
  return ms;
}

template <class Fn>
void print_row(const char* name, const Fn& fn) {
  constexpr int kReps = 9;
  // Warm both arms once (allocator, caches, lane creation), then alternate
  // arms rep by rep so drift cannot masquerade as instrumentation cost.
  (void)timed_millis(false, fn);
  (void)timed_millis(true, fn);
  std::vector<double> on, off;
  for (int r = 0; r < kReps; ++r) {
    on.push_back(timed_millis(true, fn));
    off.push_back(timed_millis(false, fn));
  }
  const double on_ms = sysgo::benchjson::sample_quantile(on, 0.50);
  const double off_ms = sysgo::benchjson::sample_quantile(off, 0.50);
  const double delta_pct =
      off_ms > 0.0 ? 100.0 * (on_ms - off_ms) / off_ms : 0.0;
  std::printf("%s,%.3f,%.3f,%.2f\n", name, on_ms, off_ms, delta_pct);
}

void print_overhead_table() {
  std::printf("workload,trace_on_ms,trace_off_ms,delta_pct\n");
  print_row("engine_simulate_sweep", simulate_sweep);
  print_row("synthesize_db_2_3", synthesize_small);
}

void BM_SimulateSweep(benchmark::State& state) {
  trace::set_enabled(state.range(0) != 0);
  for (auto _ : state) benchmark::DoNotOptimize(simulate_sweep());
  trace::set_enabled(false);
  trace::reset_for_testing();
}
BENCHMARK(BM_SimulateSweep)
    ->Name("trace/simulate_sweep")
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

void BM_Synthesize(benchmark::State& state) {
  trace::set_enabled(state.range(0) != 0);
  for (auto _ : state) benchmark::DoNotOptimize(synthesize_small());
  trace::set_enabled(false);
  trace::reset_for_testing();
}
BENCHMARK(BM_Synthesize)
    ->Name("trace/synthesize")
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

}  // namespace

SYSGO_BENCH_MAIN_PRE("trace_overhead", print_overhead_table())
