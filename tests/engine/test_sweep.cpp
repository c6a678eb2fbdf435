#include "engine/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "core/separator_bound.hpp"
#include "protocol/builders.hpp"
#include "protocol/classic_protocols.hpp"
#include "search/solver.hpp"
#include "simulator/gossip_sim.hpp"
#include "synth/synthesizer.hpp"
#include "topology/classic.hpp"
#include "topology/de_bruijn.hpp"

namespace sysgo::engine {
namespace {

using topology::Family;
using protocol::Mode;

ScenarioSpec small_grid() {
  ScenarioSpec spec;
  spec.families = {Family::kDeBruijn, Family::kKautz};
  spec.degrees = {2};
  spec.dimensions = {4, 5};
  spec.periods = {4};
  spec.tasks = {Task::kBound, Task::kSimulate, Task::kAudit};
  return spec;
}

TEST(Sweep, RecordsMatchDirectComputation) {
  SweepRunner runner;
  const auto records = runner.run(small_grid());
  ASSERT_EQ(records.size(), 2u + 2u * 2 * 2);

  // The kBound record reproduces separator_bound directly.
  const auto direct =
      core::separator_bound(Family::kDeBruijn, 2, 4, core::Duplex::kHalf);
  EXPECT_EQ(records[0].task, Task::kBound);
  EXPECT_DOUBLE_EQ(records[0].e, direct.e);
  EXPECT_DOUBLE_EQ(records[0].lambda, direct.lambda);

  // Likewise the kDiameterBound record reproduces diameter_coefficient.
  ScenarioSpec diameter;
  diameter.families = {Family::kDeBruijn, Family::kKautz};
  diameter.degrees = {2, 3};
  diameter.tasks = {Task::kDiameterBound};
  const auto diameter_records = runner.run(diameter);
  ASSERT_EQ(diameter_records.size(), 4u);
  for (const auto& r : diameter_records) {
    EXPECT_EQ(r.task, Task::kDiameterBound);
    EXPECT_DOUBLE_EQ(r.e, core::diameter_coefficient(r.key.family, r.key.d));
  }

  // The simulate record reproduces gossip_time on the same schedule.
  const auto sched = protocol::edge_coloring_schedule(
      topology::de_bruijn(2, 4), Mode::kHalfDuplex);
  const auto* simulate = &records[1];
  ASSERT_EQ(simulate->task, Task::kSimulate);
  EXPECT_EQ(simulate->n, sched.n);
  EXPECT_EQ(simulate->s, sched.period_length());
  const auto cs = protocol::CompiledSchedule::compile(sched);
  EXPECT_EQ(simulate->rounds, simulator::gossip_time(cs, 1 << 20));

  // The audit record reproduces audit_schedule, and every job was timed.
  const auto audit = core::audit_schedule(cs);
  EXPECT_EQ(records[2].task, Task::kAudit);
  EXPECT_DOUBLE_EQ(records[2].lambda, audit.lambda_star);
  EXPECT_EQ(records[2].rounds, audit.round_lower_bound);
  for (const auto& r : records) EXPECT_GE(r.millis, 0.0);
}

TEST(Sweep, AuditNeverCertifiesMoreRoundsThanSimulateMeasures) {
  // Full-duplex cycles: even C_n colour in period 2, where Theorem 4.1
  // gives no certificate (e, lambda and rounds all -1), odd C_n in period 3.
  ScenarioSpec spec;
  spec.families = {Family::kCycle};
  spec.degrees = {2};
  spec.dimensions = {4, 5, 6, 7, 8};
  spec.modes = {Mode::kFullDuplex};
  spec.tasks = {Task::kSimulate, Task::kAudit};
  SweepRunner runner;
  const auto records = runner.run(spec);
  ASSERT_EQ(records.size(), 10u);
  for (std::size_t i = 0; i < records.size(); i += 2) {
    const SweepRecord& sim = records[i];
    const SweepRecord& audit = records[i + 1];
    ASSERT_EQ(sim.task, Task::kSimulate);
    ASSERT_EQ(audit.task, Task::kAudit);
    ASSERT_EQ(audit.key.D, sim.key.D);
    ASSERT_GT(sim.rounds, 0) << "C" << sim.key.D;
    EXPECT_LE(audit.rounds, sim.rounds) << "C" << sim.key.D;
    if (audit.s < 3) {
      EXPECT_EQ(audit.e, -1.0) << "C" << sim.key.D;
      EXPECT_EQ(audit.lambda, -1.0) << "C" << sim.key.D;
      EXPECT_EQ(audit.rounds, -1) << "C" << sim.key.D;
    }
  }
  // C6: period 2, gossip in 3 rounds; the audit used to certify 4.
  EXPECT_EQ(records[4].key.D, 6);
  EXPECT_EQ(records[4].s, 2);
  EXPECT_EQ(records[4].rounds, 3);
  EXPECT_EQ(records[5].rounds, -1);
}

TEST(Sweep, CacheHitsOnRepeatedScenarioKeys) {
  SweepRunner runner;
  const auto records = runner.run(small_grid());
  ASSERT_FALSE(records.empty());
  const auto stats = runner.cache_stats();
  // 4 concrete keys, each needed by simulate and audit: 4 misses, 4 hits.
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits, 4u);
}

// Acceptance sweep: all seven registry families at d=2, D <= 9 — a threaded
// run must produce records identical to a single-threaded run.
TEST(Sweep, ThreadedMatchesSerialAcrossAllFamilies) {
  ScenarioSpec spec;
  spec.families = all_families();
  spec.degrees = {2};
  spec.dimensions = {3, 4, 5, 6, 7, 8, 9};
  spec.periods = {4, core::kUnboundedPeriod};
  spec.tasks = {Task::kBound, Task::kSimulate, Task::kAudit};

  SweepOptions serial;
  serial.threads = 1;
  SweepRunner serial_runner{serial};
  const auto expected = serial_runner.run(spec);

  for (unsigned threads : {0u, 4u}) {
    SweepOptions opts;
    opts.threads = threads;
    SweepRunner runner{opts};
    const auto got = runner.run(spec);
    ASSERT_EQ(got.size(), expected.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_TRUE(same_result(got[i], expected[i]))
          << "threads=" << threads << " record " << i;
  }
}

// Satellite: GossipOptions::parallel surfaced through ExecutionLimits —
// within-round threaded merges must reproduce the serial records exactly
// over the fig5 corpus (the paper's seven families), and over members whose
// rounds have more than 512 arcs.  There each round opens a region nested in
// the job region on the default pool, with more jobs than lanes: a lane
// waiting for its round's helpers must not pick up another simulate job,
// which would reset the thread_local arena the waiting one still merges into.
TEST(Sweep, RoundThreadsProduceSameSimulateRecords) {
  ScenarioSpec fig5;
  fig5.families = all_families();
  fig5.degrees = {2};
  fig5.dimensions = {3, 4, 5, 6};
  fig5.tasks = {Task::kSimulate, Task::kAudit};
  ScenarioSpec large;
  large.families = {Family::kDeBruijn, Family::kKautz};
  large.degrees = {2};
  large.dimensions = {12, 11, 10};
  large.modes = {Mode::kHalfDuplex, Mode::kFullDuplex};
  large.tasks = {Task::kSimulate};

  for (const ScenarioSpec& spec : {fig5, large}) {
    SweepRunner serial_runner;
    const auto expected = serial_runner.run(spec);

    ScenarioSpec threaded = spec;
    threaded.limits.simulate_parallel_rounds = true;
    SweepRunner threaded_runner;
    const auto got = threaded_runner.run(threaded);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_TRUE(same_result(got[i], expected[i])) << "record " << i;
  }
}

TEST(Sweep, OnRecordSeesEveryIndexOnce) {
  std::set<std::size_t> seen;
  std::mutex m;
  SweepOptions opts;
  opts.threads = 4;
  opts.on_record = [&](std::size_t i, const SweepRecord&) {
    std::lock_guard<std::mutex> lock(m);
    EXPECT_TRUE(seen.insert(i).second);
  };
  SweepRunner runner{opts};
  const auto records = runner.run(small_grid());
  EXPECT_EQ(seen.size(), records.size());
}

TEST(Sweep, SolveTasksMatchDirectSearch) {
  ScenarioSpec spec;
  spec.families = {Family::kCycle, Family::kKnodel};
  spec.degrees = {3};
  spec.dimensions = {6, 8};
  spec.modes = {Mode::kFullDuplex};
  spec.tasks = {Task::kSolveGossip, Task::kSolveBroadcast};
  SweepRunner runner;
  const auto records = runner.run(spec);
  ASSERT_EQ(records.size(), 8u);

  // cycle D=6 gossip record reproduces search::solve directly.
  search::SolveOptions so;
  so.mode = Mode::kFullDuplex;
  so.threads = 1;
  const auto direct = search::solve(topology::cycle(6), so);
  EXPECT_EQ(records[0].task, Task::kSolveGossip);
  EXPECT_EQ(records[0].n, 6);
  EXPECT_EQ(records[0].rounds, direct.rounds);
  EXPECT_EQ(records[0].states, static_cast<std::int64_t>(direct.states_explored));
  EXPECT_EQ(records[0].group, static_cast<std::int64_t>(direct.group_order));
  EXPECT_EQ(records[0].budget, 0);

  for (const auto& r : records) {
    // W(3,8) gossips and broadcasts in the optimal ceil(log2 8) = 3
    // full-duplex rounds; broadcast canonicalizes under the source
    // stabilizer (order 6), gossip under the full group (order 48).
    if (r.key.family == Family::kKnodel && r.key.D == 8) {
      EXPECT_EQ(r.rounds, 3);
      EXPECT_EQ(r.group, r.task == Task::kSolveGossip ? 48 : 6);
    }
    // W(3,6) is invalid (delta > floor(log2 6)): sentinel record.
    if (r.key.family == Family::kKnodel && r.key.D == 6) {
      EXPECT_EQ(r.n, 0);
      EXPECT_EQ(r.rounds, -1);
      EXPECT_EQ(r.states, -1);
    }
  }
}

TEST(Sweep, SolveTasksEmitSentinelForOversizedMembers) {
  ScenarioSpec spec;
  spec.families = {Family::kHypercube, Family::kKnodel};
  spec.degrees = {3};
  spec.dimensions = {4, 7};  // Q4 has n = 16 > 12; Knödel needs even n
  spec.modes = {Mode::kHalfDuplex};
  spec.tasks = {Task::kSolveBroadcast};
  SweepRunner runner;
  const auto records = runner.run(spec);
  ASSERT_EQ(records.size(), 4u);
  for (const auto& r : records) {
    if (r.key.family == Family::kHypercube && r.key.D == 4) {
      EXPECT_EQ(r.n, 16);       // sized in closed form, too large to solve
      EXPECT_EQ(r.rounds, -1);
      EXPECT_EQ(r.states, -1);
      EXPECT_EQ(r.budget, -1);  // not a budget exhaustion
    }
    if (r.key.family == Family::kKnodel && r.key.D == 7) {
      EXPECT_EQ(r.n, 0);        // construction rejected (odd n)
      EXPECT_EQ(r.rounds, -1);
    }
    if (r.key.family == Family::kHypercube && r.key.D == 7) {
      EXPECT_EQ(r.n, 128);
      EXPECT_EQ(r.rounds, -1);
    }
    if (r.key.family == Family::kKnodel && r.key.D == 4) {
      EXPECT_EQ(r.n, 0);        // W(3,4) invalid: delta > floor(log2 4)
      EXPECT_EQ(r.rounds, -1);
    }
  }
}

TEST(Sweep, SolveSweepThreadedMatchesSerial) {
  ScenarioSpec spec;
  spec.families = {Family::kCycle};
  spec.degrees = {2};
  spec.dimensions = {4, 5, 6, 7, 8, 9};
  spec.modes = {Mode::kFullDuplex, Mode::kHalfDuplex};
  spec.tasks = {Task::kSolveGossip, Task::kSolveBroadcast};
  // C7..C9 half-duplex exhaust this budget identically at every thread count.
  spec.limits.solve_max_states = 500'000;

  SweepOptions serial;
  serial.threads = 1;
  SweepRunner serial_runner{serial};
  const auto expected = serial_runner.run(spec);

  SweepOptions threaded;
  threaded.threads = 3;
  SweepRunner threaded_runner{threaded};
  const auto got = threaded_runner.run(spec);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_TRUE(same_result(got[i], expected[i])) << "record " << i;

  // Inner solver parallelism must not change results either.
  ScenarioSpec inner = spec;
  inner.limits.solve_threads = 3;
  SweepRunner inner_runner{serial};
  const auto inner_records = inner_runner.run(inner);
  ASSERT_EQ(inner_records.size(), expected.size());
  for (std::size_t i = 0; i < inner_records.size(); ++i)
    EXPECT_TRUE(same_result(inner_records[i], expected[i])) << "record " << i;
}

TEST(Sweep, RunCasesMatchesDirectSimulationAndAudit) {
  std::vector<ScheduleCase> cases;
  cases.push_back({"hypercube(4) fd",
                   protocol::hypercube_schedule(4, Mode::kFullDuplex), 200});
  cases.push_back({"DB(2,4) coloring hd",
                   protocol::edge_coloring_schedule(topology::de_bruijn(2, 4),
                                                    Mode::kHalfDuplex),
                   4000});
  const auto records = run_cases(cases);
  ASSERT_EQ(records.size(), 2u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    EXPECT_EQ(r.name, cases[i].name);
    EXPECT_EQ(r.n, cases[i].schedule.n);
    EXPECT_EQ(r.s, cases[i].schedule.period_length());
    const auto cs = protocol::CompiledSchedule::compile(cases[i].schedule);
    EXPECT_EQ(r.measured, simulator::gossip_time(cs, cases[i].max_rounds));
    const auto audit = core::audit_schedule(cs);
    EXPECT_EQ(r.audit.round_lower_bound, audit.round_lower_bound);
    EXPECT_DOUBLE_EQ(r.audit.lambda_star, audit.lambda_star);
    // Paper shape: the certified bound never exceeds the measured time.
    EXPECT_GT(r.measured, 0);
    EXPECT_LE(r.audit.round_lower_bound, r.measured);
  }
}

TEST(Sweep, SynthesizeTaskMatchesDirectSynthesis) {
  ScenarioSpec spec;
  spec.families = {Family::kCycle};
  spec.degrees = {2};
  spec.dimensions = {8};
  spec.tasks = {Task::kSynthesize};
  spec.limits.synth_restarts = 3;
  spec.limits.synth_iterations = 400;
  spec.limits.seed = 99;
  SweepRunner runner;
  const auto records = runner.run(spec);
  ASSERT_EQ(records.size(), 1u);
  const auto& r = records[0];
  EXPECT_EQ(r.task, Task::kSynthesize);
  EXPECT_EQ(r.n, 8);
  EXPECT_EQ(r.restarts, 3);
  EXPECT_GE(r.accepted, 0);
  EXPECT_GT(r.rounds, 0);
  EXPECT_GT(r.s, 0);

  synth::SynthOptions so;
  so.mode = Mode::kHalfDuplex;
  so.objective.max_rounds = spec.limits.simulate_max_rounds;
  so.restarts = 3;
  so.iterations = 400;
  so.seed = 99;
  so.threads = 1;
  const auto direct = synth::synthesize(topology::cycle(8), so);
  EXPECT_EQ(r.rounds, direct.objective.rounds);
  EXPECT_EQ(r.s, direct.schedule.period_length());
  EXPECT_DOUBLE_EQ(r.objective, direct.objective.score());
  EXPECT_EQ(r.accepted, direct.moves_accepted);
}

TEST(Sweep, SynthesizeSweepThreadedMatchesSerial) {
  ScenarioSpec spec;
  spec.families = {Family::kCycle, Family::kKnodel};
  spec.degrees = {2};
  spec.dimensions = {6, 8};
  spec.modes = {Mode::kHalfDuplex, Mode::kFullDuplex};
  spec.tasks = {Task::kSynthesize};
  spec.limits.synth_restarts = 2;
  spec.limits.synth_iterations = 250;
  spec.limits.seed = 5;

  SweepOptions serial;
  serial.threads = 1;
  SweepRunner serial_runner{serial};
  const auto expected = serial_runner.run(spec);

  SweepOptions threaded;
  threaded.threads = 3;
  SweepRunner threaded_runner{threaded};
  const auto got = threaded_runner.run(spec);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_TRUE(same_result(got[i], expected[i])) << "record " << i;

  // Inner restart parallelism must not change results either.
  ScenarioSpec inner = spec;
  inner.limits.synth_threads = 3;
  SweepRunner inner_runner{serial};
  const auto inner_records = inner_runner.run(inner);
  ASSERT_EQ(inner_records.size(), expected.size());
  for (std::size_t i = 0; i < inner_records.size(); ++i)
    EXPECT_TRUE(same_result(inner_records[i], expected[i])) << "record " << i;
}

TEST(Sweep, SynthesizeEmitsSentinelForUnbuildableMembers) {
  ScenarioSpec spec;
  spec.families = {Family::kRandomRegular};
  spec.degrees = {3};
  spec.dimensions = {4, 5, 6};  // D=5: odd n*d, unbuildable
  spec.tasks = {Task::kSynthesize};
  spec.limits.synth_restarts = 2;
  spec.limits.synth_iterations = 100;
  SweepRunner runner;
  const auto records = runner.run(spec);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_GT(records[0].rounds, 0);
  EXPECT_EQ(records[1].n, 0);  // sentinel, sweep not aborted
  EXPECT_EQ(records[1].rounds, -1);
  EXPECT_EQ(records[1].restarts, -1);
  EXPECT_GT(records[2].rounds, 0);
}

TEST(Sweep, SynthEmitsSentinelForOversizedMembers) {
  // db(3,8) has n = 6,561 > synth::kMaxVertices: a sentinel record sized in
  // closed form, without building the member or annealing for minutes.
  ScenarioSpec spec;
  spec.families = {Family::kDeBruijn};
  spec.degrees = {3};
  spec.dimensions = {8};
  spec.tasks = {Task::kSynthesize};
  SweepRunner runner;
  const auto records = runner.run(spec);
  ASSERT_EQ(records.size(), 1u);
  const auto& r = records[0];
  EXPECT_EQ(r.n, 6561);
  EXPECT_EQ(r.s, 0);
  EXPECT_EQ(r.rounds, -1);
  EXPECT_EQ(r.objective, -1.0);
  EXPECT_EQ(r.restarts, -1);
  EXPECT_EQ(r.accepted, -1);
}

TEST(Sweep, SynthSynthesizesAMemberAtTheVertexLimit) {
  // rr(3, 4096) sits exactly at synth::kMaxVertices: it is synthesized, not
  // a sentinel (one restart, no annealing moves, so only the warm start).
  ScenarioSpec spec;
  spec.families = {Family::kRandomRegular};
  spec.degrees = {3};
  spec.dimensions = {synth::kMaxVertices};
  spec.tasks = {Task::kSynthesize};
  spec.limits.synth_restarts = 1;
  spec.limits.synth_iterations = 0;
  SweepRunner runner;
  const auto records = runner.run(spec);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].n, synth::kMaxVertices);
  EXPECT_GT(records[0].rounds, 0);
  EXPECT_EQ(records[0].restarts, 1);
}

TEST(Sweep, SimulateAndAuditEmitSentinelForUnbuildableMembers) {
  // W(2,2) has delta > log2(n), W(2,3) an odd n, and CCC needs D >= 3:
  // those members get a sentinel record (n = 0, rounds = -1) instead of
  // aborting the sweep, and the buildable ones still run.
  ScenarioSpec spec;
  spec.families = {Family::kKnodel, Family::kCubeConnectedCycles};
  spec.degrees = {2};
  spec.dimensions = {2, 3, 4};
  spec.tasks = {Task::kSimulate, Task::kAudit};
  SweepRunner runner;
  const auto records = runner.run(spec);
  ASSERT_EQ(records.size(), 12u);
  for (const auto& r : records) {
    const std::string label = family_token(r.key.family) + " D=" +
                              std::to_string(r.key.D) + " " + task_name(r.task);
    const bool unbuildable = r.key.D == 2 || (r.key.family == Family::kKnodel &&
                                              r.key.D == 3);
    if (unbuildable) {
      EXPECT_EQ(r.n, 0) << label;
      EXPECT_EQ(r.rounds, -1) << label;
    } else {
      EXPECT_GT(r.n, 0) << label;
      if (r.task == Task::kSimulate) {
        EXPECT_GT(r.rounds, 0) << label;
      }
    }
  }
}

TEST(Sweep, ArtifactCacheKeysOnSeed) {
  // A runner reused across runs with different seeds must rebuild random
  // members, not serve the first seed's graphs.
  ScenarioSpec spec;
  spec.families = {Family::kRandomGnp};
  spec.degrees = {3};
  spec.dimensions = {14};
  spec.tasks = {Task::kSimulate};
  spec.limits.seed = 1;
  SweepRunner reused;
  const auto first = reused.run(spec);
  spec.limits.seed = 2;
  const auto second = reused.run(spec);
  SweepRunner fresh;
  const auto expected = fresh.run(spec);
  ASSERT_EQ(second.size(), 1u);
  ASSERT_EQ(expected.size(), 1u);
  EXPECT_TRUE(same_result(second[0], expected[0]));
  EXPECT_EQ(reused.cache_stats().misses, 2u);  // one build per seed
  (void)first;
}

TEST(Sweep, RandomFamilyRecordsReproducibleFromSeed) {
  ScenarioSpec spec;
  spec.families = {Family::kRandomRegular, Family::kRandomGnp};
  spec.degrees = {3};
  spec.dimensions = {12};
  spec.tasks = {Task::kSimulate, Task::kAudit};
  spec.limits.seed = 31337;
  SweepRunner a, b;
  const auto first = a.run(spec);
  const auto second = b.run(spec);
  ASSERT_EQ(first.size(), 4u);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(same_result(first[i], second[i])) << "record " << i;
    EXPECT_EQ(first[i].n, 12);
    EXPECT_GT(first[i].rounds, 0);
  }
}

}  // namespace
}  // namespace sysgo::engine
