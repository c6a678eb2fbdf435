// Topology explorer: instantiate every network family the paper tabulates,
// report size/degree/diameter, verify its Lemma 3.1 separator empirically,
// and print the Theorem 5.1 coefficients the separator yields.
//
// The per-family work runs through the sweep engine: one hand-built job
// list with a separator check and two bounds per family, instead of a
// hand-rolled loop over constructors.
//
//   $ ./topology_explorer
#include <cstdio>

#include "engine/scenario.hpp"
#include "engine/sweep.hpp"
#include "util/table.hpp"

int main() {
  using namespace sysgo;
  using topology::Family;
  using engine::Task;

  // The dimension each family is explored at (d = 2 throughout).
  const std::vector<std::pair<Family, int>> members = {
      {Family::kButterfly, 3},
      {Family::kWrappedButterflyDirected, 4},
      {Family::kWrappedButterfly, 4},
      {Family::kDeBruijnDirected, 6},
      {Family::kDeBruijn, 6},
      {Family::kKautzDirected, 5},
      {Family::kKautz, 5},
  };

  // Per member: the separator check at its dimension, then the asymptotic
  // bounds (keyed at D = 0) at s = 4 and s = inf.
  constexpr auto kHalf = protocol::Mode::kHalfDuplex;
  std::vector<engine::SweepJob> jobs;
  for (const auto& [family, D] : members) {
    jobs.push_back({{family, 2, D, kHalf}, Task::kSeparatorCheck, 0});
    jobs.push_back({{family, 2, 0, kHalf}, Task::kBound, 4});
    jobs.push_back({{family, 2, 0, kHalf}, Task::kBound, core::kUnboundedPeriod});
  }

  engine::SweepRunner runner;
  const auto records = runner.run_jobs(jobs);

  // Per key: a separator-check record, then bound records at s=4 and s=∞.
  util::Table table({"network", "D", "n", "diam", "sep dist", "min|Vi|",
                     "e(4)", "e(inf)"});
  for (std::size_t i = 0; i + 3 <= records.size(); i += 3) {
    const auto& sep = records[i];
    const auto& e4 = records[i + 1];
    const auto& einf = records[i + 2];
    table.add_row({topology::family_name(sep.key.family, sep.key.d),
                   std::to_string(sep.key.D), std::to_string(sep.n),
                   std::to_string(sep.diameter), std::to_string(sep.sep_distance),
                   std::to_string(sep.sep_min_size),
                   util::format_fixed(e4.e, 4), util::format_fixed(einf.e, 4)});
  }
  std::printf("%s", table.str().c_str());
  std::printf(
      "\n'sep dist' is the BFS-verified distance between the Lemma 3.1 sets;\n"
      "e(s) columns are the Theorem 5.1 coefficients of log2(n).\n");
  return 0;
}
