// Unit tests for the benchmark's own code: aggregation, golden parsing,
// the histogram-bucket arithmetic behind synth.deep_eval_share, and the
// fail_ratio accounting (a doctored golden must fail the run).
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "perfbench.hpp"

namespace {

using namespace perfbench;
namespace engine = sysgo::engine;

std::string read_golden(const std::string& workload) {
  std::ifstream in(std::string(PERFBENCH_GOLDEN_DIR) + "/" + workload + ".csv");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string first_reason(const Tally& t) {
  return t.reasons.empty() ? "" : t.reasons.front();
}

TEST(Aggregation, MedianOfOddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Aggregation, NonFiniteMetricIsReportedAbsent) {
  MetricSet set;
  set.put("a_s", 1.5, "s");
  set.put("b", std::numeric_limits<double>::quiet_NaN(), "ratio");
  ASSERT_EQ(set.metrics.size(), 1u);
  ASSERT_EQ(set.absent, std::vector<std::string>{"b"});
  EXPECT_EQ(metrics_json(set), "{\"a_s\": {\"value\": 1.5, \"unit\": \"s\"}}");
}

TEST(Aggregation, PassSeedKeepsPassZeroAndDerivesTheRest) {
  EXPECT_EQ(pass_seed(42, 0), 42u);
  EXPECT_NE(pass_seed(42, 1), 42u);
  EXPECT_NE(pass_seed(42, 1), pass_seed(42, 2));
  EXPECT_EQ(pass_seed(42, 3), pass_seed(42, 3));
}

TEST(HistogramArithmetic, DeepShareCountsExactlyTheSamplesAtOrAboveThreshold) {
  sysgo::obs::Histogram h;
  for (std::uint64_t v : {0u, 5u, 1023u, 1024u, 2047u, 4096u, 1u << 30})
    h.record_micros(v);
  const auto agg = h.aggregate();
  ASSERT_EQ(agg.count, 7u);
  // 1024, 2047, 4096 and 2^30 are >= 1024; 1023 sits in the bucket below.
  EXPECT_DOUBLE_EQ(share_at_or_above(agg, 1024), 4.0 / 7.0);
  EXPECT_DOUBLE_EQ(share_at_or_above(agg, 1), 6.0 / 7.0);
  EXPECT_DOUBLE_EQ(share_at_or_above(sysgo::obs::Histogram{}.aggregate(), 1024),
                   0.0);
  EXPECT_THROW((void)share_at_or_above(agg, 1000), std::invalid_argument);
}

TEST(HistogramArithmetic, DeltaSubtractsCountsSumsAndBuckets) {
  sysgo::obs::Histogram h;
  h.record_micros(10);
  const auto before = h.aggregate();
  h.record_micros(2000);
  h.record_micros(3000);
  const auto d = histogram_delta(before, h.aggregate());
  EXPECT_EQ(d.count, 2u);
  EXPECT_EQ(d.sum_us, 5000u);
  EXPECT_DOUBLE_EQ(share_at_or_above(d, 1024), 1.0);
}

TEST(ProgramMetrics, LookupByNameReportsMissingNamesAsAbsent) {
  sysgo::obs::counter("perfbench.test.present").add(3);
  const auto snap = sysgo::obs::snapshot();
  EXPECT_FALSE(find_counter(snap, "perfbench.test.never_registered"));
  ASSERT_TRUE(find_counter(snap, "perfbench.test.present"));
  EXPECT_GE(*find_counter(snap, "perfbench.test.present"), 3u);
  EXPECT_FALSE(find_histogram(snap, "perfbench.test.never_registered"));
}

TEST(Golden, ParsesHeaderRowsAndSkipsComments) {
  const std::string header = golden_header();
  EXPECT_EQ(header.find("millis"), std::string::npos);
  const std::string row = "cycle,2,7,half,solve-gossip,0,7,0,0,0,0,7,-1,-1,"
                          "-1,220214,14,0,-1,-1,-1";
  const Golden g = parse_golden("# note\n" + header + "\n\n" + row + "\n");
  ASSERT_EQ(g.rows.size(), 1u);
  EXPECT_EQ(g.rows[0], row);
}

TEST(Golden, RejectsMalformedDocuments) {
  EXPECT_THROW((void)parse_golden(""), std::invalid_argument);
  EXPECT_THROW((void)parse_golden("family,d\n"), std::invalid_argument);
  EXPECT_THROW((void)parse_golden(golden_header() + "\ncycle,2,7\n"),
               std::invalid_argument);
}

TEST(Golden, EveryWorkloadHasOneGoldenRowPerJob) {
  for (const std::string& name : workload_names()) {
    const Golden g = parse_golden(read_golden(name));
    EXPECT_EQ(g.rows.size(), make_workload(name).jobs.size()) << name;
  }
}

TEST(FailRatio, SentinelsAndBoundViolationsCountPerJob) {
  Workload w;
  w.name = "handmade";
  const engine::ScenarioKey key{sysgo::topology::Family::kKautz, 2, 3,
                                sysgo::protocol::Mode::kHalfDuplex};
  w.jobs = {{key, engine::Task::kSimulate, 0}, {key, engine::Task::kAudit, 0}};
  PassResult pass;
  pass.records.resize(2);
  for (std::size_t i = 0; i < 2; ++i) {
    pass.records[i].key = key;
    pass.records[i].task = w.jobs[i].task;
    pass.records[i].n = 12;
  }
  pass.records[0].rounds = 6;  // measured gossip time
  pass.records[1].rounds = 5;  // certified lower bound
  pass.records[1].lambda = 0.5;
  Tally ok;
  ok.add(check_pass(w, pass, nullptr));
  EXPECT_TRUE(ok.correct());
  EXPECT_EQ(ok.attempted, 2u);

  pass.records[0].rounds = 4;  // beats its own certificate: impossible
  Tally below;
  below.add(check_pass(w, pass, nullptr));
  EXPECT_EQ(below.failed, 1u);

  pass.records[0].rounds = -1;  // the simulate sentinel
  Tally sentinel;
  sentinel.add(check_pass(w, pass, nullptr));
  EXPECT_EQ(sentinel.failed, 1u);
  EXPECT_DOUBLE_EQ(sentinel.fail_ratio(), 0.5);
  EXPECT_FALSE(sentinel.correct());

  pass.error = "boom";  // a throw fails every job of the pass
  Tally threw;
  threw.add(check_pass(w, pass, nullptr));
  EXPECT_EQ(threw.failed, 2u);
}

TEST(FailRatio, DoctoredGoldenFailsTheRun) {
  const Workload w = make_workload("solve_mix");
  const PassResult pass = run_engine_pass(w, kDefaultSeed);
  ASSERT_TRUE(pass.error.empty()) << pass.error;

  const Golden golden = parse_golden(read_golden("solve_mix"));
  Tally clean;
  clean.add(check_pass(w, pass, &golden));
  EXPECT_TRUE(clean.correct()) << first_reason(clean);
  EXPECT_DOUBLE_EQ(clean.fail_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(schedule_rounds(pass), 7 + 5 + 4 + 4);

  Golden doctored = golden;
  const std::size_t at = doctored.rows[0].find(",220214,");
  ASSERT_NE(at, std::string::npos);
  doctored.rows[0].replace(at, 8, ",220215,");
  Tally bad;
  bad.add(check_pass(w, pass, &doctored));
  EXPECT_EQ(bad.failed, 1u);
  EXPECT_DOUBLE_EQ(bad.fail_ratio(), 0.25);
  EXPECT_FALSE(bad.correct());
}

TEST(TracedRun, LayersPlusLeftoverAccountForTheUntracedWall) {
  const Workload w = make_workload("synth_large");
  const Golden golden = parse_golden(read_golden("synth_large"));
  Tally tally;
  const TracedReport report = run_traced(w, kDefaultSeed, 0.0, &golden, tally);
  EXPECT_TRUE(tally.correct()) << first_reason(tally);
  EXPECT_EQ(report.pairs, 1u);
  EXPECT_TRUE(report.layers.absent.empty());
  double leftover = 0.0;
  double synthesize = 0.0;
  for (const Metric& m : report.layers.metrics) {
    if (m.name == "engine.leftover_s") leftover = m.value;
    if (m.name == "synth.synthesize_s") synthesize = m.value;
  }
  EXPECT_GT(synthesize, 0.0);
  EXPECT_DOUBLE_EQ(report.layer_busy_s + leftover, report.untraced_wall_s);
  EXPECT_NE(report.chrome_json.find("synth::synthesize"), std::string::npos);
}

TEST(Workloads, SeededOnlyWhereTheSeedChangesTheInputs) {
  EXPECT_EQ(make_workload("sweep_validate").jobs.size(), 184u);
  EXPECT_FALSE(make_workload("sweep_validate").seeded);
  EXPECT_FALSE(make_workload("solve_mix").seeded);
  EXPECT_EQ(make_workload("synth_corpus").jobs.size(), 12u);
  EXPECT_TRUE(make_workload("synth_corpus").seeded);
  EXPECT_EQ(make_workload("synth_large").jobs.size(), 4u);
  EXPECT_TRUE(make_workload("solve_synth").seeded);
  for (const std::string& name : workload_names()) {
    const Workload w = make_workload(name);
    bool any_seeded = false;
    for (const engine::SweepJob& job : w.jobs)
      any_seeded = any_seeded || job_uses_seed(job);
    EXPECT_EQ(any_seeded, w.seeded) << name;
  }
  const engine::SweepJob solve = make_workload("solve_mix").jobs[0];
  const engine::SweepJob rr = make_workload("synth_large").jobs[0];
  EXPECT_TRUE(golden_applies(solve, 7));
  EXPECT_FALSE(golden_applies(rr, 7));
  EXPECT_TRUE(golden_applies(rr, kDefaultSeed));
  EXPECT_THROW((void)make_workload("nope"), std::invalid_argument);
}

TEST(Workloads, SolveSynthIsSolveMixThenSynthCorpus) {
  const Workload both = make_workload("solve_synth");
  const Workload solve = make_workload("solve_mix");
  const Workload synth = make_workload("synth_corpus");
  ASSERT_EQ(both.jobs.size(), solve.jobs.size() + synth.jobs.size());
  for (std::size_t i = 0; i < both.jobs.size(); ++i) {
    const engine::SweepJob& want = i < solve.jobs.size()
                                       ? solve.jobs[i]
                                       : synth.jobs[i - solve.jobs.size()];
    EXPECT_TRUE(both.jobs[i].key == want.key) << i;
    EXPECT_EQ(both.jobs[i].task, want.task) << i;
  }
  EXPECT_EQ(both.instance_names, solve.instance_names);
}

TEST(FailRatio, DeterministicRowsAreCheckedAtEverySeed) {
  // A pass at another seed still compares the solve rows of solve_synth
  // against the golden (their results do not depend on the seed), but
  // not the synth rows.
  const Workload w = make_workload("solve_synth");
  Golden golden = parse_golden(read_golden("solve_synth"));
  PassResult pass;
  pass.seed = 7;
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    engine::SweepRecord r;  // passes every check but the golden one
    r.key = w.jobs[i].key;
    r.task = w.jobs[i].task;
    r.n = 8;
    r.rounds = 1;
    r.states = 1;
    r.group = 1;
    r.budget = 0;
    r.restarts = w.limits.synth_restarts;
    pass.records.push_back(r);
  }
  std::size_t solve_rows = 0;
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    golden.rows[i] = golden_row(pass.records[i]);
    if (!job_uses_seed(w.jobs[i])) ++solve_rows;
  }
  ASSERT_EQ(solve_rows, 4u);
  const auto golden_mismatches = [&] {
    std::size_t n = 0;
    for (const std::string& v : check_pass(w, pass, &golden))
      if (v.find("differs from golden") != std::string::npos) ++n;
    return n;
  };
  EXPECT_EQ(golden_mismatches(), 0u);
  for (std::string& row : golden.rows) row += "0";  // doctor every row
  EXPECT_EQ(golden_mismatches(), solve_rows);
  pass.seed = kDefaultSeed;
  EXPECT_EQ(golden_mismatches(), w.jobs.size());
}

}  // namespace
