// Declarative scenario grids for the sweep engine.
//
// A ScenarioSpec names a grid of {family × degree d × dimension D × duplex
// mode} scenarios and the tasks to run on each; expand() turns it into the
// concrete job list the SweepRunner executes.  Every bench/example that
// used to hand-roll its own families×dimensions loop states its sweep as a
// spec instead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/bounds.hpp"
#include "protocol/protocol.hpp"
#include "topology/random.hpp"
#include "topology/topology.hpp"
#include "util/parse.hpp"

namespace sysgo::engine {

/// What to compute for a scenario.
enum class Task {
  kBound,           // Theorem 5.1 separator bound (asymptotic, D-independent)
  kDiameterBound,   // trivial diameter coefficient (asymptotic, D-independent)
  kSimulate,        // measured gossip time of the edge-coloring schedule
  kAudit,           // Theorem 4.1 certified lower bound for the schedule
  kSeparatorCheck,  // BFS-verify the Lemma 3.1 separator + graph stats
  kSolveGossip,     // exact optimal gossip time (search::solve, n <= 12)
  kSolveBroadcast,  // exact optimal broadcast time from vertex 0
  kSynthesize,      // synth::synthesize a gossip schedule (multi-start
                    // annealing; see src/synth/)
};

/// Stable token used in CSV/JSON output and CLI flags:
/// "bound" | "diameter" | "simulate" | "audit" | "separator" |
/// "solve-gossip" | "solve-broadcast" | "synth".
[[nodiscard]] std::string task_name(Task t);
[[nodiscard]] Task parse_task_name(const std::string& name);  // throws

/// Asymptotic tasks hold for the whole family; they are emitted once per
/// (family, d, mode) with D = 0 instead of once per dimension.
[[nodiscard]] bool task_needs_dimension(Task t) noexcept;

/// One concrete scenario: a family member at (d, D) under a duplex mode.
/// D = 0 marks asymptotic (D-independent) jobs.
struct ScenarioKey {
  topology::Family family{};
  int d = 0;
  int D = 0;
  protocol::Mode mode = protocol::Mode::kHalfDuplex;
  friend bool operator==(const ScenarioKey&, const ScenarioKey&) = default;
};

struct ScenarioKeyHash {
  [[nodiscard]] std::size_t operator()(const ScenarioKey& k) const noexcept;
};

/// One unit of work for the runner.
struct SweepJob {
  ScenarioKey key;
  Task task{};
  /// kBound: the requested period s (core::kUnboundedPeriod for s = ∞);
  /// unused by the other tasks (their s comes from the built schedule).
  int s = 0;
  friend bool operator==(const SweepJob&, const SweepJob&) = default;
};

/// Per-task execution limits shared by every job of a run.  solve_threads
/// is the INNER solver parallelism (jobs already run concurrently on the
/// runner's pool; solver results are thread-count independent either way).
/// simulate_parallel_rounds turns on the simulator's within-round parallel
/// merges (GossipOptions::parallel) — a toggle, not a degree: the merges
/// run on the process-wide pool at its lane count, and results are
/// identical either way.
struct ExecutionLimits {
  int simulate_max_rounds = 1 << 20;
  bool simulate_parallel_rounds = false;
  int solve_max_rounds = 64;
  std::size_t solve_max_states = 20'000'000;
  unsigned solve_threads = 1;
  /// kSynthesize budgets: restarts × annealing iterations, plus an optional
  /// per-restart wall-clock cap (0 = none; a nonzero cap trades the
  /// thread-count determinism away).  synth_threads is the INNER restart
  /// parallelism, like solve_threads.
  int synth_restarts = 16;
  int synth_iterations = 4000;
  double synth_time_budget_ms = 0.0;
  unsigned synth_threads = 1;
  /// Seed for every randomized component of a run: random-topology family
  /// members and the synthesizer's restart streams.  One seed per run —
  /// echoed by the CLI so any randomized sweep is reproducible.
  std::uint64_t seed = topology::kDefaultTopologySeed;
};

/// Declarative sweep grid.
///
/// expand() order is deterministic: family (outer) → degree → dimension →
/// mode → task (spec order) → period (innermost, kBound only).  Grid
/// expansion emits asymptotic tasks once per (family, d, mode) — at the
/// first dimension — while explicit keys emit every task for every key so
/// per-key record groups keep a uniform stride.  When `explicit_keys` is
/// non-empty it replaces the family×degree×dimension×mode grid (task ×
/// period expansion still applies per key).  An empty `dimensions` list
/// means "asymptotic tasks only": keys get D = 0 and dimension-dependent
/// tasks are skipped.
struct ScenarioSpec {
  std::vector<topology::Family> families;
  std::vector<int> degrees;
  std::vector<int> dimensions;
  std::vector<protocol::Mode> modes{protocol::Mode::kHalfDuplex};
  std::vector<int> periods;  // for kBound; may include core::kUnboundedPeriod
  std::vector<Task> tasks;
  std::vector<ScenarioKey> explicit_keys;
  ExecutionLimits limits;

  [[nodiscard]] std::vector<SweepJob> expand() const;
};

/// Deterministic round-robin partition of an expanded job list: job j
/// (0-based expansion order) belongs to shard (j mod shard.count) + 1, so
/// `count` processes running the same spec with shards 1..count cover the
/// grid disjointly and their result stores union into the unsharded run.
[[nodiscard]] std::vector<SweepJob> shard_jobs(const std::vector<SweepJob>& jobs,
                                               util::ShardSpec shard);

/// The seven families of the paper's tables, in registry order.
[[nodiscard]] std::vector<topology::Family> all_families();

/// Every registered family: the paper's seven plus the classic testbed
/// topologies (cycle, complete, hypercube, CCC, shuffle-exchange, Knödel)
/// and the seeded random families (connected d-regular, connected G(n, p)).
[[nodiscard]] std::vector<topology::Family> registry_families();

/// Structured result of one executed job.  Fields not meaningful for the
/// job's task keep their sentinel defaults.
struct SweepRecord {
  ScenarioKey key;
  Task task{};
  int s = 0;       // period (kUnboundedPeriod = ∞); schedule period for
                   // simulate/audit; 0 when not applicable
  int n = 0;       // vertex count (0 for asymptotic tasks)
  double alpha = 0.0;   // Lemma 3.1 separator parameters (bound/separator)
  double ell = 0.0;
  double e = 0.0;       // bound coefficient of log2(n) (bound/diameter/audit)
  double lambda = 0.0;  // maximizing / certified λ
  int rounds = -1;      // simulate: measured gossip time; audit: certified
                        // round lower bound; solve-*: exact optimum, or -1
                        // (see budget; states/group are also -1 when the
                        // member was oversized (n > 12) or unbuildable
                        // (n = 0))
  int diameter = -1;          // separator task
  int sep_distance = -1;      // separator task: BFS-verified distance
  std::int64_t sep_min_size = -1;  // separator task: min(|V1|, |V2|)
  std::int64_t states = -1;   // solve tasks: canonical states explored
  std::int64_t group = -1;    // solve tasks: automorphism subgroup order
  int budget = -1;      // solve tasks: 1 = state budget exhausted (raise
                        // solve_max_states), 0 = searched to completion;
                        // -1 = not applicable
  double objective = -1.0;    // synth: scalarized objective of the best
                              // schedule (synth::Objective::score)
  int restarts = -1;          // synth: annealing restarts run
  std::int64_t accepted = -1; // synth: accepted moves across restarts
  double millis = 0.0;  // wall-clock job time
};

/// Equality of everything except wall-clock timing.
[[nodiscard]] bool same_result(const SweepRecord& a, const SweepRecord& b);

/// Stable family token for CSV/JSON output and CLI flags: "bf" | "wbf-dir" |
/// "wbf" | "db-dir" | "db" | "kautz-dir" | "kautz" | "cycle" | "complete" |
/// "hypercube" | "ccc" | "se" | "knodel" | "rr" | "gnp".
[[nodiscard]] std::string family_token(topology::Family f);
[[nodiscard]] topology::Family parse_family_token(const std::string& token);  // throws

/// "half" | "full".
[[nodiscard]] std::string mode_name(protocol::Mode m);
[[nodiscard]] protocol::Mode parse_mode_name(const std::string& name);  // throws

/// The core-layer duplex discipline matching a protocol mode.
[[nodiscard]] core::Duplex duplex_of(protocol::Mode m) noexcept;

}  // namespace sysgo::engine
