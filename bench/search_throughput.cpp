// Exact-search throughput: canonical states per second, plus the state-space
// compression the symmetry layer buys over identity-only canonicalization
// (max_group_order = 1), which is what the old 64-bit BFS oracle amounted to.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <cstdio>

#include "search/solver.hpp"
#include "topology/classic.hpp"
#include "topology/kautz.hpp"
#include "topology/knodel.hpp"
#include "util/table.hpp"

namespace {

using sysgo::search::Problem;
using sysgo::search::SolveOptions;
using sysgo::protocol::Mode;

void print_symmetry_reduction_table() {
  std::printf("=== Symmetry reduction vs. identity-only BFS ===\n\n");
  struct Case {
    std::string name;
    sysgo::graph::Digraph g;
    Mode mode;
  };
  std::vector<Case> cases;
  cases.push_back({"C6 half", sysgo::topology::cycle(6), Mode::kHalfDuplex});
  cases.push_back({"C7 half", sysgo::topology::cycle(7), Mode::kHalfDuplex});
  cases.push_back({"C9 full", sysgo::topology::cycle(9), Mode::kFullDuplex});
  cases.push_back({"C12 full", sysgo::topology::cycle(12), Mode::kFullDuplex});
  cases.push_back({"K5 half", sysgo::topology::complete(5), Mode::kHalfDuplex});
  cases.push_back({"Q3 full", sysgo::topology::hypercube(3), Mode::kFullDuplex});
  cases.push_back({"W(3,8) full", sysgo::topology::knodel(3, 8), Mode::kFullDuplex});

  sysgo::util::Table table(
      {"instance", "rounds", "|Aut|", "canonical", "raw", "reduction"});
  for (auto& c : cases) {
    SolveOptions with;
    with.mode = c.mode;
    with.threads = 1;
    const auto reduced = sysgo::search::solve(c.g, with);
    SolveOptions without = with;
    without.max_group_order = 1;  // identity-only
    const auto raw = sysgo::search::solve(c.g, without);
    const double factor =
        reduced.states_explored == 0
            ? 0.0
            : static_cast<double>(raw.states_explored) /
                  static_cast<double>(reduced.states_explored);
    table.add_row({c.name, std::to_string(reduced.rounds),
                   std::to_string(reduced.group_order),
                   std::to_string(reduced.states_explored),
                   std::to_string(raw.states_explored),
                   sysgo::util::format_fixed(factor, 1) + "x"});
  }
  std::printf("%s\n", table.str().c_str());
}

void BM_SolveStatesPerSecond(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const bool symmetry = state.range(1) != 0;
  const auto g = sysgo::topology::cycle(n);
  SolveOptions opts;
  opts.mode = Mode::kHalfDuplex;
  opts.threads = 1;
  if (!symmetry) opts.max_group_order = 1;  // identity-only
  std::size_t states = 0;
  for (auto _ : state) {
    const auto res = sysgo::search::solve(g, opts);
    states += res.states_explored;
    benchmark::DoNotOptimize(res);
  }
  state.counters["states/s"] = benchmark::Counter(
      static_cast<double>(states), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SolveStatesPerSecond)
    ->Name("search/cycle_half_duplex_bfs")
    ->ArgsProduct({{5, 6, 7}, {0, 1}})
    ->ArgNames({"n", "sym"})
    ->Unit(benchmark::kMillisecond);

void BM_SolveParallelBfs(benchmark::State& state) {
  const auto g = sysgo::topology::cycle(7);
  SolveOptions opts;
  opts.mode = Mode::kHalfDuplex;
  opts.threads = static_cast<unsigned>(state.range(0));
  std::size_t states = 0;
  for (auto _ : state) {
    const auto res = sysgo::search::solve(g, opts);
    states += res.states_explored;
    benchmark::DoNotOptimize(res);
  }
  state.counters["states/s"] = benchmark::Counter(
      static_cast<double>(states), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SolveParallelBfs)
    ->Name("search/cycle7_half_duplex_threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// One solve per iteration of an instance led by one search phase:
// canonicalization (K6 half-duplex gossip, |Aut| = 720) or move-set
// generation (Kautz(2,3) half-duplex broadcast, 7,136 maximal matchings).
void BM_SolveInstance(benchmark::State& state, sysgo::graph::Digraph g,
                      Problem problem) {
  SolveOptions opts;
  opts.problem = problem;
  opts.mode = Mode::kHalfDuplex;
  opts.threads = 1;
  std::size_t states = 0;
  for (auto _ : state) {
    const auto res = sysgo::search::solve(g, opts);
    states += res.states_explored;
    benchmark::DoNotOptimize(res);
  }
  state.counters["states/s"] = benchmark::Counter(
      static_cast<double>(states), benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_SolveInstance, complete6, sysgo::topology::complete(6),
                  Problem::kGossip)
    ->Name("search/complete6_half_gossip")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SolveInstance, kautz23, sysgo::topology::kautz(2, 3),
                  Problem::kBroadcast)
    ->Name("search/kautz23_half_broadcast")
    ->Unit(benchmark::kMillisecond);

}  // namespace

SYSGO_BENCH_MAIN_PRE("search_throughput", print_symmetry_reduction_table())
