#include "search/solver.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "graph/search.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "protocol/compiled.hpp"
#include "search/matchings.hpp"
#include "search/state_set.hpp"
#include "search/symmetry.hpp"
#include "simulator/broadcast_sim.hpp"
#include "simulator/gossip_sim.hpp"
#include "util/thread_pool.hpp"

namespace sysgo::search {
namespace {

using protocol::Mode;
using protocol::Round;

/// Search observability (catalog in README "Observability").  The BFS hot
/// loop accumulates into per-chunk locals and charges the counters once per
/// 64-state chunk, so the per-state cost is plain integer arithmetic.
struct SearchMetrics {
  obs::ScopeSite solve{"search.solve"};
  // One scope per BFS layer; under --perf, a layer whose IPC drops as
  // `visited` grows is the canonicalizer thrashing the cache.
  obs::ScopeSite layer{"search.layer"};
  obs::Counter& layers = obs::counter("search.layers");
  obs::Counter& expanded = obs::counter("search.states_expanded");
  obs::Counter& discovered = obs::counter("search.states_discovered");
  obs::Counter& deduped = obs::counter("search.states_deduped");
  // Work split of the expansion: successors is the number of moves that
  // changed the state (one canonicalization each), canon_ties the group
  // elements tied on row 0, whose later rows the canonicalizer scored.
  obs::Counter& successors = obs::counter("search.successors");
  obs::Counter& canon_ties = obs::counter("search.canon_ties");
};

SearchMetrics& search_metrics() {
  static SearchMetrics m;
  return m;
}

[[maybe_unused]] const bool kSearchMetricsRegistered =
    (search_metrics(), true);

// --------------------------------------------------- permutation utilities

Perm inverse_perm(const Perm& p) {
  Perm inv(p.size());
  for (std::size_t v = 0; v < p.size(); ++v)
    inv[static_cast<std::size_t>(p[v])] = static_cast<int>(v);
  return inv;
}

/// (a ∘ b)(v) = a(b(v)).
Perm compose_perm(const Perm& a, const Perm& b) {
  Perm c(b.size());
  for (std::size_t v = 0; v < b.size(); ++v)
    c[v] = a[static_cast<std::size_t>(b[v])];
  return c;
}

Round permute_round(const Perm& p, const Round& r) {
  Round out;
  out.arcs.reserve(r.arcs.size());
  for (const auto& a : r.arcs)
    out.arcs.push_back({p[static_cast<std::size_t>(a.tail)],
                        p[static_cast<std::size_t>(a.head)]});
  out.canonicalize();
  return out;
}

/// Rebuild the witness protocol from the canonical-space transition list.
/// Each step i recorded (move m_i, permutation π_i) with
/// c_{i+1} = π_i(apply(c_i, m_i)); replaying with the accumulated
/// relabeling σ_{i+1} = π_i ∘ σ_i (σ_0 = id) gives the real rounds
/// r_i = σ_i^{-1}(m_i), because automorphisms commute with apply_round.
std::vector<Round> rebuild_witness(
    const std::vector<std::pair<int, std::size_t>>& steps,
    const std::vector<Round>& moves, const Canonicalizer& canon, int n) {
  std::vector<Round> witness;
  witness.reserve(steps.size());
  Perm sigma(static_cast<std::size_t>(n));
  std::iota(sigma.begin(), sigma.end(), 0);
  for (const auto& [move, perm_index] : steps) {
    witness.push_back(permute_round(inverse_perm(sigma),
                                    moves[static_cast<std::size_t>(move)]));
    sigma = compose_perm(canon.perm(perm_index), sigma);
  }
  return witness;
}

/// One optimal protocol from the kept layers of a BFS that reached `goal`
/// (layers[k]: the states stored at depth k, the last one the layer whose
/// expansion found the goal).  successor(s, move, &perm_index) is the
/// canonical successor of s, or s itself when the move changes nothing.
/// Walking back from the goal, the first state of layer k, and its first
/// move, whose canonical successor is the current state make one step:
/// every state at depth k + 1 was discovered from one at depth k, and the
/// layers are disjoint.  Gossip and broadcast share this walk; the gossip
/// layers are sorted, so its witness is the same for every thread count.
template <typename S, typename Successor>
std::vector<Round> walk_back(const std::vector<std::vector<S>>& layers, S goal,
                             const std::vector<Round>& moves,
                             const Successor& successor,
                             const Canonicalizer& canon, int n) {
  S cur = goal;
  const auto step_back = [&](const std::vector<S>& layer,
                             std::pair<int, std::size_t>& step) {
    for (const S& s : layer)
      for (std::size_t m = 0; m < moves.size(); ++m) {
        std::size_t perm_index = 0;
        if (successor(s, moves[m], &perm_index) != cur) continue;
        step = {static_cast<int>(m), perm_index};
        cur = s;
        return;
      }
  };
  std::vector<std::pair<int, std::size_t>> steps(layers.size());
  for (std::size_t k = layers.size(); k-- > 0;) step_back(layers[k], steps[k]);
  return rebuild_witness(steps, moves, canon, n);
}

// ------------------------------------------------------------- BFS: gossip

/// Frontier-parallel BFS.  Rounds and states_explored are independent of
/// the thread count: the frontier is sorted between layers, expansion runs
/// in fixed-size batches, and goal/budget checks happen only at batch
/// barriers (set membership does not depend on insertion order).  With
/// want_witness set it also keeps every sorted layer for walk_back, so a
/// witness run counts exactly what a plain run counts.
void gossip_bfs(const std::vector<Round>& moves, Mode mode,
                const Canonicalizer& canon, int n, const SolveOptions& opts,
                SolveResult& res) {
  const State root = initial_gossip_state(n);
  const State goal = gossip_goal_state(n);

  std::unique_ptr<util::ThreadPool> own_pool;
  util::ThreadPool& pool = util::pool_for(opts.threads, own_pool);

  ShardedStateSet visited;
  visited.insert(root);
  std::vector<State> frontier{root};
  std::vector<std::vector<State>> layers;  // sorted frontiers, for a witness
  constexpr std::size_t kBatch = 2048;
  constexpr std::size_t kChunk = 64;  // states per task: one lock per chunk

  for (int depth = 1; depth <= opts.max_rounds && !frontier.empty(); ++depth) {
    // Where the canonicalizer stalls shows up as long "search.layer" spans
    // whose `frontier` arg stopped growing.
    obs::Scope layer(search_metrics().layer);
    layer.arg("depth", depth);
    layer.arg("frontier", static_cast<std::int64_t>(frontier.size()));
    std::vector<State> next;
    std::mutex next_mutex;
    std::atomic<bool> found{false};
    std::atomic<std::uint64_t> layer_successors{0};
    std::atomic<std::uint64_t> layer_ties{0};
    bool stop = false;
    for (std::size_t pos = 0; pos < frontier.size() && !stop; pos += kBatch) {
      const std::size_t count = std::min(kBatch, frontier.size() - pos);
      // Discovered states gather in per-chunk buffers and append under one
      // lock per chunk, not per state; chunk boundaries are fixed
      // arithmetic, so they cannot perturb the determinism contract.
      const auto body = [&](std::size_t chunk) {
        std::vector<State> local;
        std::uint64_t discovered = 0;
        std::uint64_t deduped = 0;
        std::uint64_t successors = 0;
        std::uint64_t ties = 0;
        const std::size_t lo = chunk * kChunk;
        const std::size_t hi = std::min(count, lo + kChunk);
        for (std::size_t i = lo; i < hi; ++i) {
          const State& s = frontier[pos + i];
          for (const Round& m : moves) {
            State t = apply_round(s, m, mode);
            if (t == s) continue;
            ++successors;
            t = canon.canonical(t, nullptr, &ties);
            if (!visited.insert(t)) {
              ++deduped;
              continue;
            }
            ++discovered;
            if (t == goal) {
              found.store(true, std::memory_order_relaxed);
              continue;
            }
            local.push_back(t);
          }
        }
        auto& sm = search_metrics();
        sm.expanded.add(hi - lo);
        sm.discovered.add(discovered);
        sm.deduped.add(deduped);
        sm.successors.add(successors);
        sm.canon_ties.add(ties);
        layer_successors.fetch_add(successors, std::memory_order_relaxed);
        layer_ties.fetch_add(ties, std::memory_order_relaxed);
        if (!local.empty()) {
          std::lock_guard<std::mutex> lock(next_mutex);
          next.insert(next.end(), local.begin(), local.end());
        }
      };
      const std::size_t chunks = (count + kChunk - 1) / kChunk;
      pool.run_indexed(chunks, body);
      if (found.load(std::memory_order_relaxed)) {
        res.rounds = depth;
        stop = true;
      } else if (visited.size() >= opts.max_states) {
        res.budget_exhausted = true;
        stop = true;
      }
    }
    search_metrics().layers.add(1);
    layer.arg("visited", static_cast<std::int64_t>(visited.size()));
    layer.arg("successors",
              static_cast<std::int64_t>(layer_successors.load()));
    layer.arg("canon_ties", static_cast<std::int64_t>(layer_ties.load()));
    if (stop) break;
    // Sorting makes the next layer's batch boundaries (and therefore any
    // mid-layer stop) identical for every thread count.
    std::sort(next.begin(), next.end());
    if (opts.want_witness) layers.push_back(std::move(frontier));
    frontier = std::move(next);
  }
  res.states_explored = visited.size();
  if (opts.want_witness && res.rounds > 0) {
    layers.push_back(std::move(frontier));
    res.witness = walk_back(
        layers, goal, moves,
        [&](const State& s, const Round& m, std::size_t* perm_index) {
          const State t = apply_round(s, m, mode);
          return t == s ? s : canon.canonical(t, perm_index);
        },
        canon, n);
  }
}

// ------------------------------------------------------------- broadcast

/// Broadcast states are informed-vertex masks (2^n of them), canonicalized
/// under the stabilizer of the source; the search is serial — the space is
/// tiny — and trivially thread-count independent.  It stops at the goal,
/// mid-layer, so states_explored counts the states stored up to it.  With
/// want_witness set it keeps every frontier for walk_back, like the gossip
/// BFS, so a witness run counts exactly what a plain run counts.
void broadcast_bfs(const std::vector<Round>& moves, const Canonicalizer& canon,
                   int n, const SolveOptions& opts, SolveResult& res) {
  const auto root = static_cast<std::uint16_t>(1u << opts.source);
  const auto goal = static_cast<std::uint16_t>((1u << n) - 1u);
  std::vector<std::uint8_t> seen(std::size_t{1} << n, 0);
  seen[root] = 1;
  std::size_t stored = 1;
  std::vector<std::uint16_t> frontier{root};
  std::vector<std::vector<std::uint16_t>> layers;  // frontiers, for a witness
  const auto successor = [&](std::uint16_t s, const Round& m,
                             std::size_t* perm_index) {
    const std::uint16_t t = apply_round_mask(s, m);
    return t == s ? s : canon.canonical_mask(t, perm_index);
  };
  for (int depth = 1; depth <= opts.max_rounds && !frontier.empty(); ++depth) {
    std::vector<std::uint16_t> next;
    for (const std::uint16_t s : frontier) {
      for (const Round& m : moves) {
        const std::uint16_t t = successor(s, m, nullptr);
        if (t == s || seen[t]) continue;
        seen[t] = 1;
        ++stored;
        if (t == goal) {
          res.rounds = depth;
          res.states_explored = stored;
          if (opts.want_witness) {
            layers.push_back(frontier);
            res.witness = walk_back(layers, goal, moves, successor, canon, n);
          }
          return;
        }
        next.push_back(t);
      }
    }
    if (opts.want_witness) layers.push_back(std::move(frontier));
    frontier = std::move(next);
  }
  res.states_explored = stored;
}

}  // namespace

SolveResult solve(const graph::Digraph& g, const SolveOptions& opts) {
  const obs::Scope scope(search_metrics().solve);
  const int n = g.vertex_count();
  if (n > kMaxVertices)
    throw std::invalid_argument("search::solve: n <= 12 required");
  if (opts.problem == Problem::kBroadcast &&
      (opts.source < 0 || opts.source >= std::max(n, 1)))
    throw std::invalid_argument("search::solve: broadcast source out of range");

  SolveResult res;
  if (n <= 1) {
    res.rounds = 0;
    res.states_explored = static_cast<std::size_t>(n);
    return res;
  }

  // Gossip needs every item to reach every vertex, broadcast the source's.
  const bool feasible =
      opts.problem == Problem::kGossip
          ? graph::is_strongly_connected(g)
          : std::ranges::none_of(graph::bfs_distances(g, opts.source),
                                 [](int d) { return d == graph::kUnreachable; });
  if (!feasible) return res;  // rounds = -1: goal unreachable at any depth

  const auto moves = maximal_matchings(g, opts.mode);
  if (moves.empty()) return res;

  AutomorphismGroup group = automorphisms(g, opts.max_group_order);
  if (opts.problem == Problem::kBroadcast)
    group = vertex_stabilizer(group, opts.source);
  const Canonicalizer canon(n, std::move(group));
  res.group_order = canon.group_order();

  if (opts.problem == Problem::kBroadcast)
    broadcast_bfs(moves, canon, n, opts, res);
  else
    gossip_bfs(moves, opts.mode, canon, n, opts, res);
  return res;
}

bool witness_valid(const graph::Digraph& g, const SolveOptions& opts,
                   const SolveResult& res) {
  if (res.rounds < 0 ||
      static_cast<int>(res.witness.size()) != res.rounds)
    return false;
  const int n = g.vertex_count();
  const bool broadcast = opts.problem == Problem::kBroadcast;
  if (broadcast && (opts.source < 0 || opts.source >= n)) return false;
  // A 0-round witness has no period to compile; it reaches the goal exactly
  // when the goal holds before any round, which is n == 1.
  if (res.rounds == 0) return n == 1;
  protocol::CompiledSchedule cs;
  try {
    cs = protocol::CompiledSchedule::compile({n, opts.mode, res.witness}, &g);
  } catch (const std::invalid_argument&) {
    return false;  // not matchings of the right mode / arcs outside g
  }
  // The witness is one period run for res.rounds rounds, so it never wraps.
  const int done = broadcast
                       ? simulator::broadcast_time(cs, opts.source, res.rounds)
                       : simulator::gossip_time(cs, res.rounds);
  return done == res.rounds;
}

}  // namespace sysgo::search
