#include "synth/synthesizer.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <thread>

#include "obs/trace.hpp"
#include "protocol/builders.hpp"
#include "protocol/compiled.hpp"
#include "search/solver.hpp"
#include "simulator/gossip_sim.hpp"
#include "topology/classic.hpp"
#include "topology/de_bruijn.hpp"
#include "topology/kautz.hpp"
#include "topology/random.hpp"

namespace sysgo::synth {
namespace {

using protocol::CompiledSchedule;
using protocol::Mode;

SynthOptions quick_options(Mode mode) {
  SynthOptions opts;
  opts.mode = mode;
  opts.restarts = 4;
  opts.iterations = 600;
  opts.threads = 1;
  return opts;
}

TEST(Synthesizer, EveryScheduleCompilesAndMatchesItsObjective) {
  // The property the subsystem promises: the returned schedule compiles
  // cleanly against its network and its simulated completion time IS the
  // reported objective.
  struct Case {
    graph::Digraph g;
    Mode mode;
  };
  std::vector<Case> cases;
  cases.push_back({topology::cycle(8), Mode::kHalfDuplex});
  cases.push_back({topology::de_bruijn(2, 3), Mode::kFullDuplex});
  cases.push_back({topology::random_regular(3, 12, 5), Mode::kFullDuplex});
  for (auto& c : cases) {
    const SynthOptions opts = quick_options(c.mode);
    const auto res = synthesize(c.g, opts);
    ASSERT_TRUE(res.objective.feasible);
    EXPECT_EQ(res.restarts_run, opts.restarts);
    EXPECT_GE(res.moves_proposed, res.moves_accepted);
    // Compiles cleanly — compile() would throw on any structural defect.
    const auto cs = CompiledSchedule::compile(res.schedule, &c.g);
    EXPECT_EQ(cs.period_length(), res.objective.period);
    EXPECT_EQ(simulator::gossip_time(cs, opts.objective.max_rounds),
              res.objective.rounds);
  }
}

TEST(Synthesizer, GoldenC9FullDuplexMatchesExactOptimum) {
  const auto g = topology::cycle(9);
  search::SolveOptions so;
  so.mode = Mode::kFullDuplex;
  const auto exact = search::solve(g, so);
  ASSERT_EQ(exact.rounds, 6);  // certified in tests/search
  SynthOptions opts;  // default budget
  opts.mode = Mode::kFullDuplex;
  opts.threads = 1;
  const auto res = synthesize(g, opts);
  EXPECT_EQ(res.objective.rounds, exact.rounds);
}

TEST(Synthesizer, GoldenQ3FullDuplexMatchesExactOptimum) {
  const auto g = topology::hypercube(3);
  search::SolveOptions so;
  so.mode = Mode::kFullDuplex;
  const auto exact = search::solve(g, so);
  ASSERT_EQ(exact.rounds, 3);
  SynthOptions opts;  // default budget
  opts.mode = Mode::kFullDuplex;
  opts.threads = 1;
  const auto res = synthesize(g, opts);
  EXPECT_EQ(res.objective.rounds, exact.rounds);
}

TEST(Synthesizer, TiesOrBeatsEdgeColoringOnDeBruijnAndKautz) {
  std::vector<graph::Digraph> graphs;
  graphs.push_back(topology::de_bruijn(2, 3));
  graphs.push_back(topology::kautz(2, 3));
  for (const auto& g : graphs) {
    const auto coloring = protocol::edge_coloring_schedule(g, Mode::kHalfDuplex);
    const int baseline =
        simulator::gossip_time(CompiledSchedule::compile(coloring, &g), 1 << 20);
    ASSERT_GT(baseline, 0);
    SynthOptions opts;  // default budget; restart 0 warm-starts from coloring
    opts.threads = 1;
    const auto res = synthesize(g, opts);
    ASSERT_TRUE(res.objective.feasible);
    EXPECT_LE(res.objective.rounds, baseline);
  }
}

TEST(Synthesizer, DeterministicAcrossThreadCounts) {
  const auto g = topology::kautz(2, 3);
  SynthOptions serial = quick_options(Mode::kHalfDuplex);
  serial.seed = 77;
  SynthOptions threaded = serial;
  threaded.threads = 4;
  const auto a = synthesize(g, serial);
  const auto b = synthesize(g, threaded);
  EXPECT_EQ(a.best_restart, b.best_restart);
  EXPECT_EQ(a.moves_proposed, b.moves_proposed);
  EXPECT_EQ(a.moves_accepted, b.moves_accepted);
  EXPECT_DOUBLE_EQ(a.objective.score(), b.objective.score());
  EXPECT_EQ(CompiledSchedule::compile(a.schedule),
            CompiledSchedule::compile(b.schedule));
  // And a different seed explores differently (verified for this pair).
  SynthOptions other = serial;
  other.seed = 78;
  const auto c = synthesize(g, other);
  EXPECT_FALSE(a.moves_accepted == c.moves_accepted &&
               CompiledSchedule::compile(a.schedule) ==
                   CompiledSchedule::compile(c.schedule));
}

TEST(Synthesizer, RejectsDegenerateInputs) {
  EXPECT_THROW((void)synthesize(graph::Digraph(1), {}), std::invalid_argument);
  graph::Digraph isolated(3);
  isolated.finalize();
  EXPECT_THROW((void)synthesize(isolated, {}), std::invalid_argument);
  const auto g = topology::cycle(5);
  SynthOptions bad;
  bad.restarts = 0;
  EXPECT_THROW((void)synthesize(g, bad), std::invalid_argument);
  bad = {};
  bad.iterations = -1;
  EXPECT_THROW((void)synthesize(g, bad), std::invalid_argument);
}

TEST(Synthesizer, RejectsOversizedNetworks) {
  // One vertex past the limit fails before any schedule is built, naming
  // the limit.
  const auto g = topology::cycle(kMaxVertices + 1);
  try {
    (void)synthesize(g, quick_options(Mode::kHalfDuplex));
    ADD_FAILURE() << "a 4,097-vertex network was synthesized";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("4096"), std::string::npos)
        << e.what();
  }
}

TEST(Synthesizer, HeavyMultiRestartImprovesLargerMembers) {
  // Long multi-restart run on DB(2, 4) — minutes of annealing; run with
  // SYSGO_HEAVY_TESTS=1 (mirrors the heavy search tests).
  if (std::getenv("SYSGO_HEAVY_TESTS") == nullptr)
    GTEST_SKIP() << "set SYSGO_HEAVY_TESTS=1 to run (~minutes)";
  const auto g = topology::de_bruijn(2, 4);
  const auto coloring = protocol::edge_coloring_schedule(g, Mode::kHalfDuplex);
  const int baseline =
      simulator::gossip_time(CompiledSchedule::compile(coloring, &g), 1 << 20);
  SynthOptions opts;
  opts.restarts = 32;
  opts.iterations = 8000;
  const auto res = synthesize(g, opts);
  ASSERT_TRUE(res.objective.feasible);
  EXPECT_LT(res.objective.rounds, baseline);  // strictly better than coloring
}

TEST(Synthesizer, HeavySynthesisAtTwoHundredVertices) {
  // Synthesis at n in the hundreds: the returned schedule is feasible and
  // its simulated time is the reported objective.  Gated like the other
  // heavy suites.
  if (std::getenv("SYSGO_HEAVY_TESTS") == nullptr)
    GTEST_SKIP() << "set SYSGO_HEAVY_TESTS=1 to run (~minutes)";
  const auto g = topology::random_regular(4, 200, 7);
  SynthOptions opts;
  opts.restarts = 1;
  opts.iterations = 300;
  opts.threads = 1;
  const auto res = synthesize(g, opts);
  ASSERT_TRUE(res.objective.feasible);
  const auto cs = CompiledSchedule::compile(res.schedule, &g);
  EXPECT_EQ(cs.period_length(), res.objective.period);
  EXPECT_EQ(simulator::gossip_time(cs, opts.objective.max_rounds),
            res.objective.rounds);
}

// A traced synthesis records a few events per restart, not one per move:
// a 64-event ring holds the whole run with nothing dropped and keeps one
// synth.restart span for every restart.
TEST(Synthesizer, TracedRunKeepsEveryRestartSpan) {
  namespace trace = obs::trace;
  trace::reset_for_testing();
  trace::set_ring_capacity(64);  // applies to lanes created from now on
  trace::set_enabled(true);
  SynthOptions opts = quick_options(Mode::kHalfDuplex);
  opts.restarts = 8;
  std::thread([&] {
    trace::set_this_lane_name("test-synth-trace");
    (void)synthesize(topology::kautz(2, 3), opts);
  }).join();
  trace::set_enabled(false);
  trace::set_ring_capacity(trace::kDefaultRingCapacity);
  const trace::TraceDump dump = trace::drain();
  trace::reset_for_testing();

  const trace::LaneDump* lane = nullptr;
  for (const trace::LaneDump& l : dump.lanes)
    if (l.name == "test-synth-trace") lane = &l;
  ASSERT_NE(lane, nullptr);
  EXPECT_EQ(lane->dropped, 0u);
  int restart_spans = 0;
  for (const trace::Event& e : lane->events)
    if (dump.strings[e.name] == "synth.restart") ++restart_spans;
  EXPECT_EQ(restart_spans, opts.restarts);
}

}  // namespace
}  // namespace sysgo::synth
