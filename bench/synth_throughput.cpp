// Synthesis throughput: annealing moves per second, plus best-objective
// trajectories (coloring baseline → short budget → long budget) over the
// fig5/fig6 corpus families.
//
// The perf-PR arms:
//   synth/kernel/<scalar|avx2|avx512>/...  whole synthesize runs under each
//                                          row kernel (moves/s)
//   eval-per-move/compiled/...             one objective evaluation per move
//                                          through compile-then-evaluate —
//                                          the annealer's old hot path
//   eval-per-move/draft/...                the same evaluation through
//                                          DraftEvaluator (no compile, no
//                                          allocation) — the current path
// Both eval-per-move arms report moves/s, so the speedup is the ratio of
// the two counters in BENCH_synth_throughput.json.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <cstdio>

#include "engine/scenario.hpp"
#include "protocol/builders.hpp"
#include "protocol/compiled.hpp"
#include "simulator/gossip_sim.hpp"
#include "simulator/kernels.hpp"
#include "synth/draft.hpp"
#include "synth/objective.hpp"
#include "synth/synthesizer.hpp"
#include "topology/topology.hpp"
#include "util/table.hpp"

namespace {

using sysgo::protocol::Mode;
using sysgo::synth::SynthOptions;

void print_trajectory_table() {
  std::printf("=== Synthesis vs edge-coloring over the fig5/fig6 corpus ===\n\n");
  struct Member {
    sysgo::topology::Family family;
    int d, D;
  };
  // One small and one mid member per undirected corpus family (the
  // directed families get support schedules; same machinery, omitted here).
  const std::vector<Member> corpus = {
      {sysgo::topology::Family::kButterfly, 2, 3},
      {sysgo::topology::Family::kWrappedButterfly, 2, 3},
      {sysgo::topology::Family::kDeBruijn, 2, 3},
      {sysgo::topology::Family::kDeBruijn, 2, 4},
      {sysgo::topology::Family::kKautz, 2, 3},
      {sysgo::topology::Family::kKautz, 2, 4},
  };
  sysgo::util::Table table({"member", "n", "coloring", "synth 4x500",
                            "synth 16x4000", "moves/s"});
  for (const auto& m : corpus) {
    const auto g = sysgo::topology::make_family(m.family, m.d, m.D);
    const auto coloring =
        sysgo::protocol::edge_coloring_schedule(g, Mode::kHalfDuplex);
    const int baseline = sysgo::simulator::gossip_time(
        sysgo::protocol::CompiledSchedule::compile(coloring), 1 << 20);

    SynthOptions quick;
    quick.restarts = 4;
    quick.iterations = 500;
    const auto short_run = sysgo::synth::synthesize(g, quick);

    SynthOptions full;  // the default budget
    const auto long_run = sysgo::synth::synthesize(g, full);
    const double moves_per_sec =
        long_run.millis > 0.0
            ? static_cast<double>(long_run.moves_proposed) /
                  (long_run.millis / 1000.0)
            : 0.0;

    table.add_row({sysgo::topology::family_name(m.family, m.d) +
                       " D=" + std::to_string(m.D),
                   std::to_string(g.vertex_count()), std::to_string(baseline),
                   std::to_string(short_run.objective.rounds),
                   std::to_string(long_run.objective.rounds),
                   sysgo::util::format_fixed(moves_per_sec, 0)});
  }
  std::printf("%s\n", table.str().c_str());
}

void BM_SynthMovesPerSecond(benchmark::State& state) {
  const auto g = sysgo::topology::make_family(
      sysgo::topology::Family::kDeBruijn, 2, static_cast<int>(state.range(0)));
  SynthOptions opts;
  opts.restarts = 2;
  opts.iterations = 1000;
  opts.threads = 1;
  std::int64_t moves = 0;
  for (auto _ : state) {
    const auto res = sysgo::synth::synthesize(g, opts);
    moves += res.moves_proposed;
    benchmark::DoNotOptimize(res);
  }
  state.counters["moves/s"] = benchmark::Counter(
      static_cast<double>(moves), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SynthMovesPerSecond)
    ->Name("synth/de_bruijn_half_duplex")
    ->DenseRange(3, 5, 1)
    ->Unit(benchmark::kMillisecond);

void BM_SynthParallelRestarts(benchmark::State& state) {
  const auto g = sysgo::topology::make_family(
      sysgo::topology::Family::kKautz, 2, 4);
  SynthOptions opts;
  opts.restarts = 8;
  opts.iterations = 1000;
  opts.threads = static_cast<unsigned>(state.range(0));
  std::int64_t moves = 0;
  for (auto _ : state) {
    const auto res = sysgo::synth::synthesize(g, opts);
    moves += res.moves_proposed;
    benchmark::DoNotOptimize(res);
  }
  state.counters["moves/s"] = benchmark::Counter(
      static_cast<double>(moves), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SynthParallelRestarts)
    ->Name("synth/kautz24_threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

struct EvalMember {
  sysgo::topology::Family family;
  int d, D;
};

const std::vector<EvalMember>& eval_corpus() {
  static const std::vector<EvalMember> kCorpus = {
      {sysgo::topology::Family::kDeBruijn, 2, 4},
      {sysgo::topology::Family::kDeBruijn, 2, 5},
      {sysgo::topology::Family::kKautz, 2, 4},
  };
  return kCorpus;
}

void BM_SynthKernel(benchmark::State& state, EvalMember m,
                    sysgo::simulator::KernelKind kind) {
  const sysgo::simulator::ScopedKernel scoped(kind);
  const auto g = sysgo::topology::make_family(m.family, m.d, m.D);
  SynthOptions opts;
  opts.restarts = 2;
  opts.iterations = 1000;
  opts.threads = 1;
  std::int64_t moves = 0;
  for (auto _ : state) {
    const auto res = sysgo::synth::synthesize(g, opts);
    moves += res.moves_proposed;
    benchmark::DoNotOptimize(res);
  }
  state.counters["moves/s"] = benchmark::Counter(
      static_cast<double>(moves), benchmark::Counter::kIsRate);
}

// One objective evaluation per annealing move, old path vs new: compiled
// re-builds the CompiledSchedule from the draft every move (what the
// annealer did before DraftEvaluator); draft scores the draft in place.
// Identical objectives — the differential suite pins that — so the moves/s
// ratio is pure overhead removed.
void BM_EvalPerMoveCompiled(benchmark::State& state, EvalMember m) {
  const auto g = sysgo::topology::make_family(m.family, m.d, m.D);
  const auto draft = sysgo::synth::ScheduleDraft::from_schedule(
      sysgo::protocol::edge_coloring_schedule(g, Mode::kHalfDuplex));
  const sysgo::synth::ObjectiveOptions opts;
  for (auto _ : state) {
    const auto obj = sysgo::synth::evaluate(
        sysgo::protocol::CompiledSchedule::compile(draft.to_schedule(), &g),
        opts);
    benchmark::DoNotOptimize(obj);
  }
  state.counters["moves/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

void BM_EvalPerMoveDraft(benchmark::State& state, EvalMember m) {
  const auto g = sysgo::topology::make_family(m.family, m.d, m.D);
  const auto draft = sysgo::synth::ScheduleDraft::from_schedule(
      sysgo::protocol::edge_coloring_schedule(g, Mode::kHalfDuplex));
  const sysgo::synth::ObjectiveOptions opts;
  sysgo::synth::DraftEvaluator evaluator;
  for (auto _ : state) {
    const auto obj = evaluator.evaluate(draft, opts);
    benchmark::DoNotOptimize(obj);
  }
  state.counters["moves/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

const bool kPerfArmsRegistered = [] {
  for (const EvalMember& m : eval_corpus()) {
    const std::string tag = sysgo::topology::family_name(m.family, m.d) +
                            "_D" + std::to_string(m.D);
    for (int k = 0; k < sysgo::simulator::kKernelKindCount; ++k) {
      const auto kind = static_cast<sysgo::simulator::KernelKind>(k);
      if (!sysgo::simulator::kernel_supported(kind)) continue;
      benchmark::RegisterBenchmark(
          ("synth/kernel/" +
           std::string(sysgo::simulator::kernel_name(kind)) + "/" + tag)
              .c_str(),
          BM_SynthKernel, m, kind)
          ->Unit(benchmark::kMillisecond);
    }
    benchmark::RegisterBenchmark(("eval-per-move/compiled/" + tag).c_str(),
                                 BM_EvalPerMoveCompiled, m)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(("eval-per-move/draft/" + tag).c_str(),
                                 BM_EvalPerMoveDraft, m)
        ->Unit(benchmark::kMicrosecond);
  }
  return true;
}();

}  // namespace

SYSGO_BENCH_MAIN_PRE("synth_throughput", print_trajectory_table())
