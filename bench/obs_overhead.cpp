// Observability overhead guard: the same simulate-sweep and synthesis
// workloads run with one instrumentation switch on and off, interleaved
// rep by rep so thermal / frequency drift hits both arms equally.  Each
// printed table reports median wall-clock per arm and the on-vs-off delta:
//
//   * metrics: the src/obs/ contract pins the delta under 2% (sharded
//     relaxed atomics on paths that are instrumented per task / per chunk,
//     never per inner-loop step);
//   * --perf: the obs::Scope perf reads (two perf_event group reads per
//     scope: per job, per store call, per pool region stay) must stay under
//     3% on the larger sweep workload;
//   * tracing: span recording OFF (the default: one relaxed atomic load per
//     obs::Scope) against ACTIVELY RECORDING (every scope's span lands in
//     the per-lane rings) must stay under 3% — spans are per task / per
//     restart / per BFS layer / per worker's stay in a pool region, and a
//     ring write is a handful of relaxed stores.  Rings are rewound after
//     every run so the recording arm pays steady-state cost, not
//     allocation.
//
// The same arms are registered as google benchmarks (obs/* and trace/*),
// so BENCH_obs_overhead.json carries machine-readable on/off medians.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <cstdio>
#include <vector>

#include "engine/scenario.hpp"
#include "engine/sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "obs/trace.hpp"
#include "obs/wall_timer.hpp"
#include "synth/synthesizer.hpp"
#include "topology/topology.hpp"

namespace {

namespace engine = sysgo::engine;
namespace obs = sysgo::obs;

std::vector<engine::SweepRecord> sweep_dims(std::vector<int> dimensions) {
  engine::ScenarioSpec spec;
  spec.families = {sysgo::topology::Family::kDeBruijn,
                   sysgo::topology::Family::kKautz};
  spec.degrees = {2};
  spec.dimensions = std::move(dimensions);
  spec.tasks = {engine::Task::kSimulate, engine::Task::kAudit};
  engine::SweepOptions opts;
  opts.threads = 1;  // serial: the purest view of per-event overhead
  engine::SweepRunner runner(opts);
  return runner.run_jobs(spec.expand(), spec.limits);
}

std::vector<engine::SweepRecord> simulate_sweep() { return sweep_dims({3, 4, 5}); }

/// Larger graphs than simulate_sweep: a scope's perf cost is a fixed
/// number of perf_event reads per job, so the honest overhead denominator is a
/// realistically-sized job (~0.1 ms+), not a handful of 8-node toys.
std::vector<engine::SweepRecord> simulate_sweep_large() {
  return sweep_dims({5, 6, 7});
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

/// The instrumentation one pair of arms toggles.
enum class Switch { kMetrics, kPerf, kTrace };

/// Sets a switch for its lifetime, then restores the previous state; a
/// tracing arm also rewinds the rings it filled.
class Arm {
 public:
  Arm(Switch sw, bool on) : sw_(sw), prev_(get()) { set(on); }
  ~Arm() {
    set(prev_);
    if (sw_ == Switch::kTrace) obs::trace::reset_for_testing();
  }
  Arm(const Arm&) = delete;
  Arm& operator=(const Arm&) = delete;

 private:
  bool get() const {
    switch (sw_) {
      case Switch::kMetrics: return obs::enabled();
      case Switch::kPerf: return obs::perf::enabled();
      case Switch::kTrace: return obs::trace::enabled();
    }
    return false;
  }
  void set(bool on) const {
    switch (sw_) {
      case Switch::kMetrics: obs::set_enabled(on); break;
      case Switch::kPerf: obs::perf::set_enabled(on); break;
      case Switch::kTrace: obs::trace::set_enabled(on); break;
    }
  }

  Switch sw_;
  bool prev_;
};

template <class Fn>
double timed_millis(Switch sw, bool on, const Fn& fn) {
  const Arm arm(sw, on);
  const obs::WallTimer timer;
  benchmark::DoNotOptimize(fn());
  return timer.millis();
}

template <class Fn>
void print_row(Switch sw, const char* name, const Fn& fn) {
  constexpr int kReps = 9;
  // Warm both arms once (allocator, caches, lane creation), then alternate
  // arms rep by rep so machine drift cannot masquerade as instrumentation
  // cost.
  (void)timed_millis(sw, false, fn);
  (void)timed_millis(sw, true, fn);
  std::vector<double> on, off;
  for (int r = 0; r < kReps; ++r) {
    on.push_back(timed_millis(sw, true, fn));
    off.push_back(timed_millis(sw, false, fn));
  }
  const double on_ms = sysgo::benchjson::sample_quantile(on, 0.50);
  const double off_ms = sysgo::benchjson::sample_quantile(off, 0.50);
  const double delta_pct =
      off_ms > 0.0 ? 100.0 * (on_ms - off_ms) / off_ms : 0.0;
  std::printf("%s,%.3f,%.3f,%.2f\n", name, on_ms, off_ms, delta_pct);
}

void print_overhead_table() {
  std::printf("workload,obs_on_ms,obs_off_ms,delta_pct\n");
  print_row(Switch::kMetrics, "engine_simulate_sweep", simulate_sweep);
  print_row(Switch::kMetrics, "synthesize_db_2_3", synthesize_small);
  // Metrics stay on in both --perf arms; only the scopes' counter group
  // reads toggle.
  std::printf("workload,perf_on_ms,perf_off_ms,delta_pct\n");
  print_row(Switch::kPerf, "engine_simulate_sweep_perf", simulate_sweep_large);
  print_row(Switch::kPerf, "synthesize_db_2_3_perf", synthesize_small);
  std::printf("workload,trace_on_ms,trace_off_ms,delta_pct\n");
  print_row(Switch::kTrace, "engine_simulate_sweep", simulate_sweep);
  print_row(Switch::kTrace, "synthesize_db_2_3", synthesize_small);
  obs::reset_all();  // the table's metrics are not the benchmarks'
}

template <Switch kSwitch, auto kWorkload>
void BM_Arm(benchmark::State& state) {
  const Arm arm(kSwitch, state.range(0) != 0);
  for (auto _ : state) benchmark::DoNotOptimize(kWorkload());
}

#define SYSGO_OVERHEAD_BENCH(name, sw, workload) \
  BENCHMARK_TEMPLATE(BM_Arm, sw, workload)       \
      ->Name(name)                               \
      ->Arg(1)                                   \
      ->Arg(0)                                   \
      ->Unit(benchmark::kMillisecond)

SYSGO_OVERHEAD_BENCH("obs/simulate_sweep", Switch::kMetrics, simulate_sweep);
SYSGO_OVERHEAD_BENCH("obs/simulate_sweep_perf", Switch::kPerf,
                     simulate_sweep_large);
SYSGO_OVERHEAD_BENCH("obs/synthesize", Switch::kMetrics, synthesize_small);
SYSGO_OVERHEAD_BENCH("trace/simulate_sweep", Switch::kTrace, simulate_sweep);
SYSGO_OVERHEAD_BENCH("trace/synthesize", Switch::kTrace, synthesize_small);

}  // namespace

SYSGO_BENCH_MAIN_PRE("obs_overhead", print_overhead_table())
