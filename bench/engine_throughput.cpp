// Engine throughput (ours): gossip-simulator round rate (serial vs threaded
// rounds) and power-iteration norm computation — the ablation benches of
// DESIGN.md.  Schedules are compiled once, outside the timed loops.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include "core/delay_digraph.hpp"
#include "core/delay_matrix.hpp"
#include "protocol/builders.hpp"
#include "protocol/classic_protocols.hpp"
#include "simulator/gossip_sim.hpp"
#include "topology/de_bruijn.hpp"

namespace {

using sysgo::protocol::Mode;

void BM_GossipHypercube(benchmark::State& state) {
  const int D = static_cast<int>(state.range(0));
  const bool parallel = state.range(1) != 0;
  const auto cs = sysgo::protocol::CompiledSchedule::compile(
      sysgo::protocol::hypercube_schedule(D, Mode::kFullDuplex));
  sysgo::simulator::GossipOptions opts;
  opts.parallel = parallel;
  for (auto _ : state) {
    const int t = sysgo::simulator::gossip_time(cs, 4 * D, opts);
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations() * (1 << D));
  state.SetLabel(parallel ? "threaded" : "serial");
}
BENCHMARK(BM_GossipHypercube)
    ->Name("engine/gossip_hypercube")
    ->ArgsProduct({{8, 10, 12}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_GossipDeBruijn(benchmark::State& state) {
  const int D = static_cast<int>(state.range(0));
  const auto g = sysgo::topology::de_bruijn(2, D);
  const auto cs = sysgo::protocol::CompiledSchedule::compile(
      sysgo::protocol::edge_coloring_schedule(g, Mode::kHalfDuplex));
  for (auto _ : state) {
    const int t = sysgo::simulator::gossip_time(cs, 1 << 20);
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations() * g.vertex_count());
}
BENCHMARK(BM_GossipDeBruijn)
    ->Name("engine/gossip_debruijn")
    ->DenseRange(6, 10)
    ->Unit(benchmark::kMillisecond);

void BM_DelayMatrixNorm(benchmark::State& state) {
  const auto cs = sysgo::protocol::CompiledSchedule::compile(
      sysgo::protocol::edge_coloring_schedule(
          sysgo::topology::de_bruijn(2, static_cast<int>(state.range(0))),
          Mode::kHalfDuplex));
  const sysgo::core::DelayDigraph dg(cs, 2 * cs.period_length());
  for (auto _ : state) {
    const double norm = sysgo::core::delay_matrix_norm(dg, 0.5);
    benchmark::DoNotOptimize(norm);
  }
  state.counters["nodes"] = static_cast<double>(dg.node_count());
}
BENCHMARK(BM_DelayMatrixNorm)
    ->Name("engine/delay_matrix_norm")
    ->Arg(5)
    ->Arg(7)
    ->Arg(9)
    ->Unit(benchmark::kMillisecond);

void BM_DelayDigraphBuild(benchmark::State& state) {
  const auto cs = sysgo::protocol::CompiledSchedule::compile(
      sysgo::protocol::edge_coloring_schedule(
          sysgo::topology::de_bruijn(2, static_cast<int>(state.range(0))),
          Mode::kHalfDuplex));
  for (auto _ : state) {
    sysgo::core::DelayDigraph dg(cs, 2 * cs.period_length());
    benchmark::DoNotOptimize(dg);
  }
}
BENCHMARK(BM_DelayDigraphBuild)
    ->Name("engine/delay_digraph_build")
    ->DenseRange(5, 9)
    ->Unit(benchmark::kMillisecond);

}  // namespace

SYSGO_BENCH_MAIN("engine_throughput")
