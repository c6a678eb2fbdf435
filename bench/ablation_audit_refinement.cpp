// Ablation (DESIGN.md #1, #2): how much does each layer of the bound chain
// give up?  For a corpus of schedules we compare, at the certificate's λ*:
//
//   exact ‖Mx(λ)‖  <=  per-vertex audit bound  <=  worst-case F(λ, s)
//
// and the resulting coefficients: audit e vs general e(s).
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <cstdio>

#include "analysis/gap.hpp"
#include "core/audit.hpp"
#include "core/bounds.hpp"
#include "protocol/builders.hpp"
#include "protocol/classic_protocols.hpp"
#include "protocol/tree_protocols.hpp"
#include "topology/de_bruijn.hpp"
#include "topology/kautz.hpp"
#include "util/table.hpp"

namespace {

using sysgo::protocol::Mode;

void print_ablation() {
  std::printf("=== Ablation: per-vertex audit vs worst-case general bound ===\n\n");
  struct Case {
    std::string name;
    sysgo::protocol::SystolicSchedule sched;
  };
  std::vector<Case> cases;
  cases.push_back({"path(16) hd", sysgo::protocol::path_schedule(16, Mode::kHalfDuplex)});
  cases.push_back({"cycle(16) hd", sysgo::protocol::cycle_schedule(16, Mode::kHalfDuplex)});
  cases.push_back({"tree(2,h=4) hd", sysgo::protocol::tree_schedule(2, 4, Mode::kHalfDuplex)});
  cases.push_back({"grid(5x5) hd", sysgo::protocol::grid_schedule(5, 5, Mode::kHalfDuplex)});
  cases.push_back({"DB(2,5) hd", sysgo::protocol::edge_coloring_schedule(
                                     sysgo::topology::de_bruijn(2, 5), Mode::kHalfDuplex)});
  cases.push_back({"K(2,4) hd", sysgo::protocol::edge_coloring_schedule(
                                    sysgo::topology::kautz(2, 4), Mode::kHalfDuplex)});
  cases.push_back({"hyper(4) fd", sysgo::protocol::hypercube_schedule(4, Mode::kFullDuplex)});

  sysgo::util::Table table({"schedule", "s", "audit e", "general e(s)",
                            "max exact ||Mx||@l*", "max analytic@l*"});
  for (auto& c : cases) {
    const auto cs = sysgo::protocol::CompiledSchedule::compile(c.sched);
    const auto audit = sysgo::core::audit_schedule(cs);
    const int s = c.sched.period_length();
    const auto duplex = c.sched.mode == Mode::kFullDuplex
                            ? sysgo::core::Duplex::kFull
                            : sysgo::core::Duplex::kHalf;
    const double gen = s >= 3 ? sysgo::core::e_general(s, duplex) : 0.0;
    const auto gaps = sysgo::analysis::audit_gap_report(cs, audit.lambda_star);
    double max_exact = 0.0, max_analytic = 0.0;
    for (const auto& row : gaps) {
      max_exact = std::max(max_exact, row.exact_norm);
      max_analytic = std::max(max_analytic, row.analytic_bound);
    }
    table.add_row({c.name, std::to_string(s),
                   sysgo::util::format_fixed(audit.e_coeff, 4),
                   sysgo::util::format_fixed(gen, 4),
                   sysgo::util::format_fixed(max_exact, 4),
                   sysgo::util::format_fixed(max_analytic, 4)});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("audit e >= general e(s): the per-vertex refinement never loses;\n"
              "max exact <= max analytic: the Lemma 4.3 slack at lambda*.\n\n");
}

void BM_GapReport(benchmark::State& state) {
  const auto cs = sysgo::protocol::CompiledSchedule::compile(
      sysgo::protocol::edge_coloring_schedule(
          sysgo::topology::de_bruijn(2, static_cast<int>(state.range(0))),
          Mode::kHalfDuplex));
  for (auto _ : state) {
    auto rows = sysgo::analysis::audit_gap_report(cs, 0.5);
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_GapReport)
    ->Name("ablation/gap_report_debruijn")
    ->DenseRange(4, 7)
    ->Unit(benchmark::kMillisecond);

}  // namespace

SYSGO_BENCH_MAIN_PRE("ablation_audit_refinement", print_ablation())
