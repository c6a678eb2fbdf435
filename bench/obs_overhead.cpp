// Observability overhead guard: the same simulate-sweep and synthesis
// workloads run with metrics collection enabled and disabled, interleaved
// rep by rep so thermal / frequency drift hits both arms equally.  The
// printed table reports median wall-clock per arm and the on-vs-off delta —
// the src/obs/ contract pins it under 2% (sharded relaxed atomics on paths
// that are instrumented per task / per chunk, never per inner-loop step).
// A third table section pins --perf the same way: the obs::Scope perf
// reads (two perf_event group reads per scope: per job, per store call,
// per pool closure) must stay under 3% on the sweep workload.  The same
// workloads are also registered as google benchmarks, so
// BENCH_obs_overhead.json carries machine-readable on/off medians.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <cstdio>
#include <vector>

#include "engine/scenario.hpp"
#include "engine/sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "obs/wall_timer.hpp"
#include "synth/synthesizer.hpp"
#include "topology/topology.hpp"

namespace {

namespace engine = sysgo::engine;

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

/// Larger graphs than simulate_sweep: a scope's perf cost is a fixed
/// number of perf_event reads per job, so the honest overhead denominator is a
/// realistically-sized job (~0.1 ms+), not a handful of 8-node toys.
std::vector<engine::SweepRecord> simulate_sweep_large() {
  engine::ScenarioSpec spec;
  spec.families = {sysgo::topology::Family::kDeBruijn,
                   sysgo::topology::Family::kKautz};
  spec.degrees = {2};
  spec.dimensions = {5, 6, 7};
  spec.tasks = {engine::Task::kSimulate, engine::Task::kAudit};
  engine::SweepOptions opts;
  opts.threads = 1;
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
double timed_millis(bool obs_on, const Fn& fn) {
  sysgo::obs::set_enabled(obs_on);
  const sysgo::obs::WallTimer timer;
  benchmark::DoNotOptimize(fn());
  const double ms = timer.millis();
  sysgo::obs::set_enabled(true);
  return ms;
}

template <class Fn>
void print_row(const char* name, const Fn& fn) {
  constexpr int kReps = 9;
  // Warm both arms once (allocator, caches), then alternate arms rep by
  // rep so machine drift cannot masquerade as instrumentation cost.
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

/// The --perf arm: metrics stay on in both arms; only the scopes' counter
/// group reads toggle.  Same interleaving discipline as timed_millis.
template <class Fn>
double timed_millis_perf(bool perf_on, const Fn& fn) {
  sysgo::obs::perf::set_enabled(perf_on);
  const sysgo::obs::WallTimer timer;
  benchmark::DoNotOptimize(fn());
  const double ms = timer.millis();
  sysgo::obs::perf::set_enabled(false);
  return ms;
}

template <class Fn>
void print_perf_row(const char* name, const Fn& fn) {
  constexpr int kReps = 9;
  (void)timed_millis_perf(false, fn);
  (void)timed_millis_perf(true, fn);
  std::vector<double> on, off;
  for (int r = 0; r < kReps; ++r) {
    on.push_back(timed_millis_perf(true, fn));
    off.push_back(timed_millis_perf(false, fn));
  }
  const double on_ms = sysgo::benchjson::sample_quantile(on, 0.50);
  const double off_ms = sysgo::benchjson::sample_quantile(off, 0.50);
  const double delta_pct =
      off_ms > 0.0 ? 100.0 * (on_ms - off_ms) / off_ms : 0.0;
  std::printf("%s,%.3f,%.3f,%.2f\n", name, on_ms, off_ms, delta_pct);
}

void print_overhead_table() {
  std::printf("workload,obs_on_ms,obs_off_ms,delta_pct\n");
  print_row("engine_simulate_sweep", simulate_sweep);
  print_row("synthesize_db_2_3", synthesize_small);
  std::printf("workload,perf_on_ms,perf_off_ms,delta_pct\n");
  print_perf_row("engine_simulate_sweep_perf", simulate_sweep_large);
  print_perf_row("synthesize_db_2_3_perf", synthesize_small);
  sysgo::obs::reset_all();  // the table's metrics are not the benchmarks'
}

void BM_SimulateSweep(benchmark::State& state) {
  sysgo::obs::set_enabled(state.range(0) != 0);
  for (auto _ : state) benchmark::DoNotOptimize(simulate_sweep());
  sysgo::obs::set_enabled(true);
}
BENCHMARK(BM_SimulateSweep)
    ->Name("obs/simulate_sweep")
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

void BM_SimulateSweepPerf(benchmark::State& state) {
  sysgo::obs::perf::set_enabled(state.range(0) != 0);
  for (auto _ : state) benchmark::DoNotOptimize(simulate_sweep_large());
  sysgo::obs::perf::set_enabled(true);
}
BENCHMARK(BM_SimulateSweepPerf)
    ->Name("obs/simulate_sweep_perf")
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

void BM_Synthesize(benchmark::State& state) {
  sysgo::obs::set_enabled(state.range(0) != 0);
  for (auto _ : state) benchmark::DoNotOptimize(synthesize_small());
  sysgo::obs::set_enabled(true);
}
BENCHMARK(BM_Synthesize)
    ->Name("obs/synthesize")
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

}  // namespace

SYSGO_BENCH_MAIN_PRE("obs_overhead", print_overhead_table())
