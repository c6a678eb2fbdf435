#include "search/solver.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>

#include "obs/metrics.hpp"
#include "simulator/broadcast_sim.hpp"
#include "topology/classic.hpp"
#include "topology/kautz.hpp"
#include "topology/knodel.hpp"

namespace sysgo::search {
namespace {

using protocol::Mode;

SolveResult run(const graph::Digraph& g, Problem p, Mode m,
                unsigned threads = 1) {
  SolveOptions opts;
  opts.problem = p;
  opts.mode = m;
  opts.threads = threads;
  return solve(g, opts);
}

graph::Digraph k3_pendant() {
  graph::Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.finalize();
  return g;
}

// ------------------------------------------------------------ golden optima
//
// Gossip values for n <= 8 cross-checked against the pre-subsystem 64-bit
// BFS oracle; K4, C4 and C5 are also re-derived by the unreduced reference
// search of MatchesNaiveReference.

struct Golden {
  const char* name;
  graph::Digraph g;
  int gossip_full;
  int gossip_half;  // -1: too expensive for the default suite (see below)
  int broadcast_full;
  int broadcast_half;
};

std::vector<Golden> golden_corpus() {
  std::vector<Golden> corpus;
  corpus.push_back({"K4", topology::complete(4), 2, 4, 2, 2});
  corpus.push_back({"C4", topology::cycle(4), 2, 4, 2, 2});
  corpus.push_back({"C5", topology::cycle(5), 4, 6, 3, 3});
  // Q3 and W(3,8) half-duplex gossip (= 6 rounds; 1.07e8 canonical states)
  // runs only with SYSGO_HEAVY_TESTS=1 — see HeavyGoldenHalfDuplexOptima.
  corpus.push_back({"Q3", topology::hypercube(3), 3, -1, 3, 3});
  corpus.push_back({"W(3,8)", topology::knodel(3, 8), 3, -1, 3, 3});
  return corpus;
}

TEST(Solver, GoldenGossipOptima) {
  for (const auto& c : golden_corpus()) {
    EXPECT_EQ(run(c.g, Problem::kGossip, Mode::kFullDuplex).rounds,
              c.gossip_full)
        << c.name << " full";
    if (c.gossip_half >= 0) {
      EXPECT_EQ(run(c.g, Problem::kGossip, Mode::kHalfDuplex).rounds,
                c.gossip_half)
          << c.name << " half";
    }
  }
  // A full-duplex round does all a half-duplex round on its edges does, so
  // half duplex is never faster.
  for (int n : {3, 4, 5}) {
    const auto g = topology::complete(n);
    const int full = run(g, Problem::kGossip, Mode::kFullDuplex).rounds;
    const int half = run(g, Problem::kGossip, Mode::kHalfDuplex).rounds;
    ASSERT_GT(full, 0);
    EXPECT_GE(half, full) << "K" << n;
  }
}

TEST(Solver, GoldenBroadcastOptima) {
  for (const auto& c : golden_corpus()) {
    EXPECT_EQ(run(c.g, Problem::kBroadcast, Mode::kFullDuplex).rounds,
              c.broadcast_full)
        << c.name << " full";
    EXPECT_EQ(run(c.g, Problem::kBroadcast, Mode::kHalfDuplex).rounds,
              c.broadcast_half)
        << c.name << " half";
  }
}

TEST(Solver, GoldenStateCounts) {
  // states_explored counts orbit representatives, so it pins which member
  // of each orbit the canonicalizer returns, not only the optimum.
  struct Count {
    const char* name;
    graph::Digraph g;
    Problem problem;
    Mode mode;
    int rounds;
    std::size_t states;
    std::size_t group;
  };
  const Count counts[] = {
      {"K5 half gossip", topology::complete(5), Problem::kGossip,
       Mode::kHalfDuplex, 5, 4206, 120},
      {"K5 full gossip", topology::complete(5), Problem::kGossip,
       Mode::kFullDuplex, 4, 19, 120},
      {"C6 half gossip", topology::cycle(6), Problem::kGossip,
       Mode::kHalfDuplex, 6, 13489, 12},
      {"Kautz(2,2) half gossip", topology::kautz(2, 2), Problem::kGossip,
       Mode::kHalfDuplex, 5, 112968, 12},
      {"Kautz(2,3) half broadcast", topology::kautz(2, 3),
       Problem::kBroadcast, Mode::kHalfDuplex, 4, 275, 2},
      {"Kautz(2,3) full broadcast", topology::kautz(2, 3),
       Problem::kBroadcast, Mode::kFullDuplex, 4, 188, 2},
      {"Q3 full gossip", topology::hypercube(3), Problem::kGossip,
       Mode::kFullDuplex, 3, 120, 48},
  };
  for (const auto& c : counts) {
    const auto res = run(c.g, c.problem, c.mode);
    EXPECT_EQ(res.rounds, c.rounds) << c.name;
    EXPECT_EQ(res.states_explored, c.states) << c.name;
    EXPECT_EQ(res.group_order, c.group) << c.name;
  }
}

TEST(Solver, HeavyGoldenHalfDuplexOptima) {
  // Q3 / W(3,8) one-way gossip: beyond the old oracle's reach entirely.
  if (std::getenv("SYSGO_HEAVY_TESTS") == nullptr)
    GTEST_SKIP() << "set SYSGO_HEAVY_TESTS=1 to run (~minutes)";
  SolveOptions opts;
  opts.mode = Mode::kHalfDuplex;
  opts.max_states = 200'000'000;
  // Certified on first run: 6 rounds, 107158324 canonical states (~5e9 raw
  // under the 48-element group); >= 5 already from 1.4404 * log2(8).
  const auto q3 = solve(topology::hypercube(3), opts);
  EXPECT_FALSE(q3.budget_exhausted);
  EXPECT_EQ(q3.rounds, 6);
  const auto w38 = solve(topology::knodel(3, 8), opts);
  EXPECT_EQ(w38.rounds, 6);  // isomorphic to Q3 (crown graph K4,4 - PM)
}

// ------------------------------------------------------- naive reference
//
// An oracle that shares no search code: maximal matchings by brute force
// over arc subsets, and a breadth-first search over unreduced knowledge
// states (one 16-bit row per vertex; no canonicalization, no hashing).

using Rows = std::vector<std::uint16_t>;
using Move = std::vector<graph::Arc>;

std::vector<Move> naive_maximal_matchings(const graph::Digraph& g, Mode mode) {
  // A link is one arc (half duplex) or one opposite arc pair (full duplex).
  std::vector<Move> links;
  std::vector<std::uint32_t> ends;  // vertex mask of each link
  for (const auto& a : g.arcs()) {
    if (a.tail == a.head) continue;
    if (mode == Mode::kHalfDuplex) {
      links.push_back({a});
    } else if (a.tail < a.head && g.has_arc(a.head, a.tail)) {
      links.push_back({a, {a.head, a.tail}});
    } else {
      continue;
    }
    ends.push_back((1u << a.tail) | (1u << a.head));
  }
  std::vector<Move> out;
  for (std::uint32_t subset = 1; subset < (1u << links.size()); ++subset) {
    std::uint32_t used = 0;
    bool matching = true;
    for (std::size_t i = 0; i < links.size() && matching; ++i) {
      if (((subset >> i) & 1u) == 0) continue;
      matching = (used & ends[i]) == 0;
      used |= ends[i];
    }
    if (!matching) continue;
    bool maximal = true;
    for (std::size_t i = 0; i < links.size() && maximal; ++i)
      maximal = ((subset >> i) & 1u) != 0 || (used & ends[i]) != 0;
    if (!maximal) continue;
    Move move;
    for (std::size_t i = 0; i < links.size(); ++i)
      if ((subset >> i) & 1u)
        move.insert(move.end(), links[i].begin(), links[i].end());
    out.push_back(std::move(move));
  }
  return out;
}

/// Optimal rounds by plain BFS.  Broadcast tracks only whether each vertex
/// knows source 0's item (row = 0 or 1), gossip the whole matrix.
int naive_rounds(const graph::Digraph& g, Problem problem, Mode mode) {
  const int n = g.vertex_count();
  const auto moves = naive_maximal_matchings(g, mode);
  Rows start(static_cast<std::size_t>(n));
  Rows goal(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    const auto sv = static_cast<std::size_t>(v);
    if (problem == Problem::kGossip) {
      start[sv] = static_cast<std::uint16_t>(1u << v);
      goal[sv] = static_cast<std::uint16_t>((1u << n) - 1u);
    } else {
      start[sv] = v == 0 ? 1 : 0;
      goal[sv] = 1;
    }
  }
  if (start == goal) return 0;
  std::set<Rows> seen{start};
  std::vector<Rows> frontier{start};
  for (int depth = 1; !frontier.empty(); ++depth) {
    std::vector<Rows> next;
    for (const Rows& s : frontier) {
      for (const Move& move : moves) {
        Rows t = s;
        for (const auto& a : move)
          t[static_cast<std::size_t>(a.head)] |= s[static_cast<std::size_t>(a.tail)];
        if (t == goal) return depth;
        if (seen.insert(t).second) next.push_back(std::move(t));
      }
    }
    frontier = std::move(next);
  }
  return -1;
}

TEST(Solver, MatchesNaiveReference) {
  // Includes deliberately ASYMMETRIC instances (stars, paths, pendant
  // cliques) next to vertex-transitive ones: knowledge-imbalanced states
  // and small automorphism groups are where a search shortcut that only
  // holds on symmetric networks would show.
  struct Case {
    const char* name;
    graph::Digraph g;
  };
  std::vector<Case> corpus;
  corpus.push_back({"K4", topology::complete(4)});
  corpus.push_back({"C4", topology::cycle(4)});
  corpus.push_back({"C5", topology::cycle(5)});
  corpus.push_back({"C6", topology::cycle(6)});
  corpus.push_back({"P5", topology::path(5)});
  corpus.push_back({"star5", topology::complete_tree(4, 1)});
  corpus.push_back({"K3+pendant", k3_pendant()});
  for (const auto& c : corpus) {
    for (Problem p : {Problem::kGossip, Problem::kBroadcast}) {
      for (Mode m : {Mode::kFullDuplex, Mode::kHalfDuplex}) {
        const std::string label =
            std::string(c.name) +
            (p == Problem::kGossip ? " gossip" : " broadcast") +
            (m == Mode::kFullDuplex ? " full" : " half");
        const auto res = run(c.g, p, m);
        EXPECT_EQ(res.rounds, naive_rounds(c.g, p, m)) << label;
      }
    }
  }
}

TEST(Solver, SymmetryOffMatchesSymmetryOn) {
  for (Mode m : {Mode::kFullDuplex, Mode::kHalfDuplex}) {
    for (int n : {4, 5, 6}) {
      SolveOptions opts;
      opts.mode = m;
      opts.threads = 1;
      const auto with = solve(topology::cycle(n), opts);
      opts.max_group_order = 1;  // identity-only canonicalization
      const auto without = solve(topology::cycle(n), opts);
      EXPECT_EQ(with.rounds, without.rounds) << "C" << n;
      EXPECT_GT(with.group_order, 1u);
      EXPECT_EQ(without.group_order, 1u);
      // Symmetry reduction must never store MORE states.
      EXPECT_LE(with.states_explored, without.states_explored);
    }
  }
}

TEST(Solver, SerialAndThreadedRunsAreIdentical) {
  // The determinism contract: rounds AND states_explored match for any
  // thread count (1 = serial batched loop, 3 = private pool, 0 = process
  // pool).  K5 (|G| = 120) runs concurrent canonicalizations over a
  // non-trivial group, which the TSan job checks.
  struct Case {
    graph::Digraph g;
    Mode mode;
  };
  const Case cases[] = {{topology::cycle(7), Mode::kFullDuplex},
                        {topology::cycle(7), Mode::kHalfDuplex},
                        {topology::complete(5), Mode::kHalfDuplex}};
  for (const auto& c : cases) {
    const auto serial = run(c.g, Problem::kGossip, c.mode, 1);
    const auto pooled = run(c.g, Problem::kGossip, c.mode, 0);
    const auto threaded = run(c.g, Problem::kGossip, c.mode, 3);
    EXPECT_EQ(serial.rounds, threaded.rounds);
    EXPECT_EQ(serial.states_explored, threaded.states_explored);
    EXPECT_EQ(serial.rounds, pooled.rounds);
    EXPECT_EQ(serial.states_explored, pooled.states_explored);
  }
}

TEST(Solver, WorkCountersSplitTheExpansion) {
  // Every successor is canonicalized once, then stored or deduplicated;
  // each canonicalization scores between 1 and |G| elements past row 0.
  obs::Counter& successors = obs::counter("search.successors");
  obs::Counter& ties = obs::counter("search.canon_ties");
  obs::Counter& discovered = obs::counter("search.states_discovered");
  obs::Counter& deduped = obs::counter("search.states_deduped");
  const std::uint64_t successors0 = successors.value();
  const std::uint64_t ties0 = ties.value();
  const std::uint64_t discovered0 = discovered.value();
  const std::uint64_t deduped0 = deduped.value();
  const auto res =
      run(topology::complete(5), Problem::kGossip, Mode::kHalfDuplex, 3);
  const std::uint64_t succ = successors.value() - successors0;
  const std::uint64_t tied = ties.value() - ties0;
  const std::uint64_t stored = discovered.value() - discovered0;
  EXPECT_EQ(stored + 1, res.states_explored);  // + the root
  EXPECT_EQ(succ, stored + (deduped.value() - deduped0));
  EXPECT_GE(tied, succ);
  EXPECT_LE(tied, succ * res.group_order);
}

TEST(Solver, CertifiesCycleNineBeyondOldOracle) {
  // n = 9 was unrepresentable in the old 64-bit packing.  C9 full-duplex
  // gossip takes 6 rounds.
  const auto bfs = run(topology::cycle(9), Problem::kGossip, Mode::kFullDuplex);
  EXPECT_EQ(bfs.rounds, 6);
  EXPECT_FALSE(bfs.budget_exhausted);
  EXPECT_EQ(bfs.group_order, 18u);
  // Broadcast at n >= 9, both modes.
  EXPECT_EQ(run(topology::cycle(9), Problem::kBroadcast, Mode::kFullDuplex).rounds, 5);
  EXPECT_EQ(run(topology::cycle(9), Problem::kBroadcast, Mode::kHalfDuplex).rounds, 5);
}

TEST(Solver, TwelveVertexInstance) {
  // The representation ceiling: C12 full-duplex gossips in 6 rounds.
  const auto res = run(topology::cycle(12), Problem::kGossip, Mode::kFullDuplex);
  EXPECT_EQ(res.rounds, 6);
  EXPECT_THROW((void)run(topology::path(13), Problem::kGossip,
                         Mode::kHalfDuplex),
               std::invalid_argument);
}

TEST(Solver, GossipWitnessIsValidAndOptimal) {
  for (Mode m : {Mode::kFullDuplex, Mode::kHalfDuplex}) {
    for (int n : {5, 6, 9}) {
      if (n == 9 && m == Mode::kHalfDuplex) continue;  // full duplex only
      const auto g = topology::cycle(n);
      SolveOptions opts;
      opts.mode = m;
      opts.want_witness = true;
      const auto res = solve(g, opts);
      ASSERT_GT(res.rounds, 0);
      // The compiled execution path re-validates structure (matchings in
      // the right mode, arcs of g) and replays the witness exactly.
      EXPECT_TRUE(witness_valid(g, opts, res));

      // A corrupted witness must be rejected: drop the last round.
      SolveResult broken = res;
      broken.witness.pop_back();
      EXPECT_FALSE(witness_valid(g, opts, broken));
    }
  }
}

TEST(Solver, WitnessRunReportsThePlainRunsCounts) {
  // A witness run is the plain BFS plus its kept layers: the same rounds
  // and states_explored, and the same witness, for every thread count.
  // Broadcast keeps its stop-at-goal count and walks back the same way.
  struct Case {
    std::string name;
    graph::Digraph g;
    Problem problem;
    Mode mode;
    int source = 0;
  };
  std::vector<Case> cases;
  for (int n : {5, 6, 9})
    for (Mode mode : {Mode::kFullDuplex, Mode::kHalfDuplex})
      if (n != 9 || mode == Mode::kFullDuplex)
        cases.push_back({"C" + std::to_string(n), topology::cycle(n),
                         Problem::kGossip, mode});
  for (Mode mode : {Mode::kFullDuplex, Mode::kHalfDuplex}) {
    cases.push_back({"Kautz(2,3) broadcast", topology::kautz(2, 3),
                     Problem::kBroadcast, mode});
    cases.push_back({"C6 broadcast", topology::cycle(6), Problem::kBroadcast,
                     mode});
    cases.push_back({"C7 broadcast from 3", topology::cycle(7),
                     Problem::kBroadcast, mode, 3});
  }
  for (const auto& c : cases) {
    const auto& g = c.g;
    const std::string label =
        c.name + (c.mode == Mode::kFullDuplex ? " full" : " half");
    std::vector<protocol::Round> first_witness;
    for (unsigned threads : {1u, 4u}) {
      SolveOptions opts;
      opts.problem = c.problem;
      opts.mode = c.mode;
      opts.source = c.source;
      opts.threads = threads;
      const auto plain = solve(g, opts);
      opts.want_witness = true;
      const auto res = solve(g, opts);
      ASSERT_GT(plain.rounds, 0) << label;
      EXPECT_EQ(res.rounds, plain.rounds) << label << " threads=" << threads;
      EXPECT_EQ(res.states_explored, plain.states_explored)
          << label << " threads=" << threads;
      EXPECT_TRUE(witness_valid(g, opts, res))
          << label << " threads=" << threads;
      if (first_witness.empty()) first_witness = res.witness;
      EXPECT_EQ(res.witness, first_witness) << label << " threads=" << threads;
    }
  }
}

TEST(Solver, BroadcastWitnessReachesEveryone) {
  const auto g = topology::knodel(3, 8);
  SolveOptions opts;
  opts.problem = Problem::kBroadcast;
  opts.mode = Mode::kHalfDuplex;
  opts.source = 0;
  opts.want_witness = true;
  const auto res = solve(g, opts);
  ASSERT_EQ(res.rounds, 3);
  EXPECT_TRUE(witness_valid(g, opts, res));

  // Emptying the final round leaves some vertex uninformed: rejected.
  SolveResult idle = res;
  idle.witness.back().arcs.clear();
  EXPECT_FALSE(witness_valid(g, opts, idle));
}

TEST(Solver, BudgetExhaustionReportsCleanly) {
  SolveOptions opts;
  opts.mode = Mode::kHalfDuplex;
  opts.max_states = 100;
  const auto res = solve(topology::cycle(7), opts);
  EXPECT_EQ(res.rounds, -1);
  EXPECT_TRUE(res.budget_exhausted);
  EXPECT_GE(res.states_explored, 100u);

  // A round budget runs out without touching the state budget.
  SolveOptions short_opts;
  short_opts.mode = Mode::kHalfDuplex;
  short_opts.max_rounds = 2;
  const auto p5 = solve(topology::path(5), short_opts);
  EXPECT_EQ(p5.rounds, -1);
  EXPECT_FALSE(p5.budget_exhausted);
}

TEST(Solver, DisconnectedGraphIsInfeasible) {
  graph::Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.finalize();
  const auto res = run(g, Problem::kGossip, Mode::kFullDuplex);
  EXPECT_EQ(res.rounds, -1);
  EXPECT_FALSE(res.budget_exhausted);
  const auto b = run(g, Problem::kBroadcast, Mode::kFullDuplex);
  EXPECT_EQ(b.rounds, -1);
}

TEST(Solver, BroadcastSourceValidation) {
  SolveOptions opts;
  opts.problem = Problem::kBroadcast;
  opts.source = 5;
  EXPECT_THROW((void)solve(topology::cycle(4), opts), std::invalid_argument);
}

TEST(Solver, TrivialInstances) {
  EXPECT_EQ(run(topology::path(1), Problem::kGossip, Mode::kHalfDuplex).rounds, 0);
  EXPECT_EQ(run(topology::path(2), Problem::kGossip, Mode::kFullDuplex).rounds, 1);
  EXPECT_EQ(run(topology::path(2), Problem::kGossip, Mode::kHalfDuplex).rounds, 2);
  EXPECT_EQ(run(topology::path(2), Problem::kBroadcast, Mode::kHalfDuplex).rounds, 1);
  // P3: the middle vertex relays both ways, one edge per round.
  EXPECT_EQ(run(topology::path(3), Problem::kGossip, Mode::kFullDuplex).rounds, 3);
  EXPECT_EQ(run(topology::path(3), Problem::kGossip, Mode::kHalfDuplex).rounds, 4);
}

}  // namespace
}  // namespace sysgo::search
