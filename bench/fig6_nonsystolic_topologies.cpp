// Reproduces Fig. 6: non-systolic (s -> ∞) half-duplex/directed lower
// bounds for specific networks, compared with the trivial diameter bound
// (the paper's "diam." entries) and the 1.4404 general bound.
//
// The table comes from core::fig6_rows, the one generator behind `sysgo
// table fig6` (and its spelling `sysgo sweep fig6`); the benchmark measures
// that generator.
//
// Quoted checkpoints: WBF(2,D) -> 1.9750, DB(2,D) -> 1.5876.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <cstdio>

#include "core/tables.hpp"
#include "util/table.hpp"

namespace {

void print_fig6() {
  std::printf("=== Fig. 6: non-systolic half-duplex/directed bounds ===\n");
  std::printf("entries multiply log2(n)*(1 - o(1)); general bound = 1.4404\n\n");
  sysgo::util::Table table({"network", "matrix bound", "diameter", "best"});
  for (const auto& row : sysgo::core::fig6_rows())
    table.add_row({sysgo::topology::family_name(row.family, row.d),
                   sysgo::util::format_fixed(row.e_matrix, 4),
                   sysgo::util::format_fixed(row.e_diameter, 4),
                   sysgo::util::format_fixed(row.e_best, 4)});
  std::printf("%s\n", table.str().c_str());
}

void BM_Fig6AllRows(benchmark::State& state) {
  std::size_t rows = 0;
  for (auto _ : state) {
    const auto table = sysgo::core::fig6_rows();
    rows = table.size();
    benchmark::DoNotOptimize(table);
  }
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_Fig6AllRows)->Name("fig6/full_table")->Unit(benchmark::kMillisecond);

}  // namespace

SYSGO_BENCH_MAIN_PRE("fig6_nonsystolic_topologies", print_fig6())
