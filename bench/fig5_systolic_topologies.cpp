// Reproduces Fig. 5: lower bounds e(s)·log2(n)·(1 − o(1)) for s-systolic
// half-duplex/directed gossip on Butterfly, Wrapped Butterfly, de Bruijn
// and Kautz families (Theorem 5.1 + Lemma 3.1), s = 3..8.
//
// The table comes from core::fig5_rows, the one generator behind `sysgo
// table fig5` (and its spelling `sysgo sweep fig5`); the benchmark measures
// that generator and the single-entry separator-bound kernel.
//
// Quoted checkpoints: WBF(2,D) @ s=4 -> 2.0218, DB(2,D) @ s=4 -> 1.8133.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <cstdio>
#include <vector>

#include "core/separator_bound.hpp"
#include "core/tables.hpp"
#include "util/table.hpp"

namespace {

const std::vector<int> kPeriods{3, 4, 5, 6, 7, 8};

void print_fig5() {
  std::printf(
      "=== Fig. 5: systolic half-duplex/directed bounds for specific networks ===\n");
  std::printf("entries: e(s) such that t >= e(s)*log2(n)*(1 - o(1))\n\n");
  std::vector<std::string> header{"network", "alpha", "l"};
  for (int s : kPeriods) header.push_back("s=" + sysgo::core::period_label(s));
  sysgo::util::Table table(header);
  for (const auto& row : sysgo::core::fig5_rows(kPeriods)) {
    std::vector<std::string> cells{
        sysgo::topology::family_name(row.family, row.d),
        sysgo::util::format_fixed(row.alpha, 4),
        sysgo::util::format_fixed(row.ell, 4)};
    for (double e : row.e_by_period)
      cells.push_back(sysgo::util::format_fixed(e, 4));
    table.add_row(std::move(cells));
  }
  std::printf("%s", table.str().c_str());
  std::printf(
      "\n(entries equal to the Fig. 4 value e(s) correspond to the paper's"
      " '*' cells)\n\n");
}

void BM_Fig5Entry(benchmark::State& state) {
  const auto families = sysgo::core::paper_family_list();
  const auto& [family, d] = families[static_cast<std::size_t>(state.range(0))];
  const int s = static_cast<int>(state.range(1));
  double e = 0.0;
  for (auto _ : state) {
    e = sysgo::core::separator_bound(family, d, s, sysgo::core::Duplex::kHalf).e;
    benchmark::DoNotOptimize(e);
  }
  state.counters["e"] = e;
  state.SetLabel(sysgo::topology::family_name(family, d) + " s=" +
                 std::to_string(s));
}
BENCHMARK(BM_Fig5Entry)
    ->Name("fig5/separator_bound")
    ->ArgsProduct({{0, 4, 8, 12}, {3, 4, 8}});

void BM_Fig5Rows(benchmark::State& state) {
  for (auto _ : state) {
    const auto rows = sysgo::core::fig5_rows(kPeriods);
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_Fig5Rows)->Name("fig5/full_table")->Unit(benchmark::kMillisecond);

}  // namespace

SYSGO_BENCH_MAIN_PRE("fig5_systolic_topologies", print_fig5())
