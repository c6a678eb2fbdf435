// Validation harness: measured gossip times of concrete systolic protocols
// vs the certified Theorem 4.1 lower bounds (audit) and the analytic
// e(s)·log2(n) coefficients.  Reproduces the paper's upper-vs-lower "shape":
// the certified bound always sits below the measured time, and the audit's
// per-vertex refinement is at least as strong as the general e(s).
//
// The corpus runs through engine::run_cases (simulate + audit per case on
// the sweep engine's thread pool) instead of a bespoke measure/audit loop.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/audit.hpp"
#include "engine/sweep.hpp"
#include "protocol/builders.hpp"
#include "protocol/classic_protocols.hpp"
#include "simulator/gossip_sim.hpp"
#include "topology/classic.hpp"
#include "topology/de_bruijn.hpp"
#include "topology/kautz.hpp"
#include "topology/wrapped_butterfly.hpp"
#include "util/table.hpp"

namespace {

using sysgo::protocol::Mode;

std::vector<sysgo::engine::ScheduleCase> corpus() {
  std::vector<sysgo::engine::ScheduleCase> cases;
  cases.push_back({"path(32) hd", sysgo::protocol::path_schedule(32, Mode::kHalfDuplex),
                   2000});
  cases.push_back({"cycle(32) hd",
                   sysgo::protocol::cycle_schedule(32, Mode::kHalfDuplex), 2000});
  cases.push_back({"grid(6x6) hd",
                   sysgo::protocol::grid_schedule(6, 6, Mode::kHalfDuplex), 2000});
  cases.push_back({"hypercube(6) fd",
                   sysgo::protocol::hypercube_schedule(6, Mode::kFullDuplex), 200});
  cases.push_back({"hypercube(6) hd",
                   sysgo::protocol::hypercube_schedule(6, Mode::kHalfDuplex), 400});
  cases.push_back({"complete(64) fd",
                   sysgo::protocol::complete_power2_schedule(64, Mode::kFullDuplex),
                   200});
  cases.push_back({"DB(2,5) coloring hd",
                   sysgo::protocol::edge_coloring_schedule(
                       sysgo::topology::de_bruijn(2, 5), Mode::kHalfDuplex),
                   4000});
  cases.push_back({"DB(2,7) coloring hd",
                   sysgo::protocol::edge_coloring_schedule(
                       sysgo::topology::de_bruijn(2, 7), Mode::kHalfDuplex),
                   8000});
  cases.push_back({"WBF(2,4) coloring hd",
                   sysgo::protocol::edge_coloring_schedule(
                       sysgo::topology::wrapped_butterfly(2, 4), Mode::kHalfDuplex),
                   8000});
  cases.push_back({"K(2,5) coloring fd",
                   sysgo::protocol::edge_coloring_schedule(
                       sysgo::topology::kautz(2, 5), Mode::kFullDuplex),
                   8000});
  return cases;
}

void print_validation() {
  std::printf("=== Validation: measured systolic gossip vs certified bounds ===\n\n");
  sysgo::util::Table table({"protocol", "n", "s", "measured t", "cert. bound",
                            "audit e", "general e(s)", "ok"});
  const auto cases = corpus();
  const auto records = sysgo::engine::run_cases(cases);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    const double gen =
        r.s >= 3 ? sysgo::core::e_general(
                       r.s, sysgo::engine::duplex_of(cases[i].schedule.mode))
                 : 0.0;
    const bool ok = r.measured > 0 && r.audit.round_lower_bound <= r.measured;
    table.add_row({r.name, std::to_string(r.n), std::to_string(r.s),
                   std::to_string(r.measured),
                   std::to_string(r.audit.round_lower_bound),
                   sysgo::util::format_fixed(r.audit.e_coeff, 4),
                   sysgo::util::format_fixed(gen, 4), ok ? "yes" : "NO"});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("'cert. bound' = Theorem 4.1 round count at the audit's lambda*.\n\n");
}

void BM_AuditSchedule(benchmark::State& state) {
  const auto cs = sysgo::protocol::CompiledSchedule::compile(
      sysgo::protocol::edge_coloring_schedule(
          sysgo::topology::de_bruijn(2, static_cast<int>(state.range(0))),
          Mode::kHalfDuplex));
  for (auto _ : state) {
    auto res = sysgo::core::audit_schedule(cs);
    benchmark::DoNotOptimize(res);
  }
}
BENCHMARK(BM_AuditSchedule)->Name("validation/audit_debruijn")->DenseRange(4, 8);

void BM_MeasureGossip(benchmark::State& state) {
  const auto cs = sysgo::protocol::CompiledSchedule::compile(
      sysgo::protocol::edge_coloring_schedule(
          sysgo::topology::de_bruijn(2, static_cast<int>(state.range(0))),
          Mode::kHalfDuplex));
  int t = 0;
  for (auto _ : state) {
    t = sysgo::simulator::gossip_time(cs, 100000);
    benchmark::DoNotOptimize(t);
  }
  state.counters["rounds"] = t;
}
BENCHMARK(BM_MeasureGossip)
    ->Name("validation/gossip_time_debruijn")
    ->DenseRange(4, 7)
    ->Unit(benchmark::kMillisecond);

}  // namespace

SYSGO_BENCH_MAIN_PRE("validation_upper_vs_lower", print_validation())
