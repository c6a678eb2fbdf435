#include "search/solver.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <unordered_map>
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

// -------------------------------------------------------------- heuristic

/// Per-instance admissible lower bounds on the remaining rounds, combining
/// the distance deficit (v still misses some item, which must travel from
/// one of its CURRENT holders w, taking at least dist(w, v) rounds — the
/// concrete form of the diameter bound) with the information-doubling
/// deficit (the maximum row at most doubles per round in either duplex
/// mode — the broadcasting growth bound).
struct Heuristic {
  int n = 0;
  std::uint16_t full = 0;
  /// dist_to[v][u] = dist(u -> v): rounds for an item at u to reach v.
  std::vector<std::array<int, kMaxVertices>> dist_to;
  /// by_dist[v]: all vertices w with their dist(w -> v), ascending by
  /// distance (w = v first) — the union walk of gossip_h.
  std::vector<std::vector<std::pair<int, int>>> by_dist;
  std::array<int, kMaxVertices + 1> doubling{};

  explicit Heuristic(const graph::Digraph& g)
      : n(g.vertex_count()),
        full(static_cast<std::uint16_t>((1u << g.vertex_count()) - 1u)),
        dist_to(static_cast<std::size_t>(g.vertex_count())),
        by_dist(static_cast<std::size_t>(g.vertex_count())) {
    for (int u = 0; u < n; ++u) {
      const auto d = graph::bfs_distances(g, u);
      for (int v = 0; v < n; ++v)
        dist_to[static_cast<std::size_t>(v)][static_cast<std::size_t>(u)] =
            d[static_cast<std::size_t>(v)];
    }
    for (int v = 0; v < n; ++v) {
      auto& order = by_dist[static_cast<std::size_t>(v)];
      for (int w = 0; w < n; ++w)
        order.emplace_back(w,
                           dist_to[static_cast<std::size_t>(v)][static_cast<std::size_t>(w)]);
      std::sort(order.begin(), order.end(),
                [](const auto& a, const auto& b) { return a.second < b.second; });
    }
    for (int p = 1; p <= n; ++p) {
      int t = 0;
      for (int c = p; c < n; c <<= 1) ++t;
      doubling[static_cast<std::size_t>(p)] = t;
    }
  }

  [[nodiscard]] bool gossip_feasible() const {
    for (int v = 0; v < n; ++v)
      for (int u = 0; u < n; ++u)
        if (dist_to[static_cast<std::size_t>(v)][static_cast<std::size_t>(u)] ==
            graph::kUnreachable)
          return false;
    return true;
  }

  [[nodiscard]] bool broadcast_feasible(int source) const {
    for (int v = 0; v < n; ++v)
      if (dist_to[static_cast<std::size_t>(v)][static_cast<std::size_t>(source)] ==
          graph::kUnreachable)
        return false;
    return true;
  }

  [[nodiscard]] int gossip_h(const State& s) const {
    // Information-doubling deficit of the LARGEST row: one round unions a
    // row with at most one other row, both bounded by the current maximum,
    // so max_v |row_v| at most doubles per round.  (A per-vertex doubling
    // term would be inadmissible — a small row can more than double by
    // merging with a better-informed neighbor.)
    int max_count = 0;
    for (int v = 0; v < n; ++v)
      max_count = std::max(
          max_count, std::popcount(s.rows[static_cast<std::size_t>(v)]));
    int h = doubling[static_cast<std::size_t>(max_count)];
    for (int v = 0; v < n; ++v) {
      const auto sv = static_cast<std::size_t>(v);
      const std::uint16_t row = s.rows[sv];
      int hv = 0;
      if (row != full) {
        // Distance deficit: the minimal k such that every item is already
        // held by some vertex within distance k of v.  Walk vertices in
        // ascending dist(w -> v), unioning their rows; the distance of the
        // last vertex needed is the deficit.
        std::uint16_t acc = row;
        for (const auto& [w, dw] : by_dist[sv]) {
          acc = static_cast<std::uint16_t>(acc | s.rows[static_cast<std::size_t>(w)]);
          if (acc == full) {
            hv = std::max(hv, dw);
            break;
          }
        }
      }
      h = std::max(h, hv);
    }
    return h;
  }

  [[nodiscard]] int broadcast_h(std::uint16_t informed) const {
    int h = doubling[static_cast<std::size_t>(std::popcount(informed))];
    unsigned missing = static_cast<unsigned>(full & ~informed);
    while (missing != 0) {
      const int v = std::countr_zero(missing);
      missing &= missing - 1;
      int nearest = graph::kUnreachable;
      unsigned have = informed;
      while (have != 0) {
        const int u = std::countr_zero(have);
        have &= have - 1;
        nearest = std::min(
            nearest,
            dist_to[static_cast<std::size_t>(v)][static_cast<std::size_t>(u)]);
      }
      h = std::max(h, nearest);
    }
    return h;
  }
};

// ------------------------------------------------------------- BFS: gossip

/// Serial BFS with parent tracking, used when a witness is requested.
void gossip_bfs_witness(const std::vector<Round>& moves, Mode mode,
                        const Canonicalizer& canon, int n,
                        const SolveOptions& opts, SolveResult& res) {
  const State root = initial_gossip_state(n);
  const State goal = gossip_goal_state(n);
  struct ParentInfo {
    State parent;
    int move = -1;
    std::size_t perm = 0;
  };
  std::unordered_map<State, ParentInfo, StateHash> parents;
  parents.emplace(root, ParentInfo{root, -1, 0});
  std::vector<State> frontier{root};
  for (int depth = 1; depth <= opts.max_rounds && !frontier.empty(); ++depth) {
    std::vector<State> next;
    for (const State& s : frontier) {
      for (std::size_t m = 0; m < moves.size(); ++m) {
        State t = apply_round(s, moves[m], mode);
        if (t == s) continue;
        std::size_t perm_index;
        t = canon.canonical(t, &perm_index);
        if (!parents.emplace(t, ParentInfo{s, static_cast<int>(m), perm_index})
                 .second)
          continue;
        if (t == goal) {
          res.rounds = depth;
          res.states_explored = parents.size();
          // Walk goal -> root, then rebuild forward.
          std::vector<std::pair<int, std::size_t>> steps;
          State cur = t;
          while (cur != root) {
            const auto& info = parents.at(cur);
            steps.emplace_back(info.move, info.perm);
            cur = info.parent;
          }
          std::reverse(steps.begin(), steps.end());
          res.witness = rebuild_witness(steps, moves, canon, n);
          return;
        }
        if (parents.size() >= opts.max_states) {
          res.budget_exhausted = true;
          res.states_explored = parents.size();
          return;
        }
        next.push_back(t);
      }
    }
    frontier = std::move(next);
  }
  res.states_explored = parents.size();
}

/// Frontier-parallel BFS.  Rounds and states_explored are independent of
/// the thread count: the frontier is sorted between layers, expansion runs
/// in fixed-size batches, and goal/budget checks happen only at batch
/// barriers (set membership does not depend on insertion order).
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
    frontier = std::move(next);
  }
  res.states_explored = visited.size();
}

// ------------------------------------------------------------- broadcast

/// Broadcast states are informed-vertex masks (2^n of them), canonicalized
/// under the stabilizer of the source; the search is serial — the space is
/// tiny — and trivially thread-count independent.
void broadcast_bfs(const std::vector<Round>& moves, const Canonicalizer& canon,
                   int n, const SolveOptions& opts, SolveResult& res) {
  const auto root = static_cast<std::uint16_t>(1u << opts.source);
  const auto goal = static_cast<std::uint16_t>((1u << n) - 1u);
  const std::size_t space = std::size_t{1} << n;
  std::vector<std::uint8_t> seen(space, 0);
  struct ParentInfo {
    std::uint16_t parent = 0;
    int move = -1;
    std::size_t perm = 0;
  };
  std::vector<ParentInfo> parents(opts.want_witness ? space : 0);
  seen[root] = 1;
  std::size_t stored = 1;
  std::vector<std::uint16_t> frontier{root};
  for (int depth = 1; depth <= opts.max_rounds && !frontier.empty(); ++depth) {
    std::vector<std::uint16_t> next;
    for (const std::uint16_t s : frontier) {
      for (std::size_t m = 0; m < moves.size(); ++m) {
        std::uint16_t t = apply_round_mask(s, moves[m]);
        if (t == s) continue;
        t = canon.canonical_mask(t);
        if (seen[t]) continue;
        seen[t] = 1;
        ++stored;
        if (opts.want_witness) {
          // canonical_mask does not report its permutation; recover one
          // lazily only when a witness is requested (n is tiny here).
          std::size_t perm_index = 0;
          const std::uint16_t raw = apply_round_mask(s, moves[m]);
          for (std::size_t p = 0; p < canon.group_order(); ++p) {
            std::uint16_t image = 0;
            for (int v = 0; v < n; ++v)
              if ((raw >> v) & 1u)
                image = static_cast<std::uint16_t>(
                    image | (1u << canon.perm(p)[static_cast<std::size_t>(v)]));
            if (image == t) {
              perm_index = p;
              break;
            }
          }
          parents[t] = {s, static_cast<int>(m), perm_index};
        }
        if (t == goal) {
          res.rounds = depth;
          res.states_explored = stored;
          if (opts.want_witness) {
            std::vector<std::pair<int, std::size_t>> steps;
            std::uint16_t cur = t;
            while (cur != root) {
              const auto& info = parents[cur];
              steps.emplace_back(info.move, info.perm);
              cur = info.parent;
            }
            std::reverse(steps.begin(), steps.end());
            res.witness = rebuild_witness(steps, moves, canon, n);
          }
          return;
        }
        next.push_back(t);
      }
    }
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

  const Heuristic heur(g);
  const bool feasible = opts.problem == Problem::kGossip
                            ? heur.gossip_feasible()
                            : heur.broadcast_feasible(opts.source);
  if (!feasible) return res;  // rounds = -1: goal unreachable at any depth

  const auto moves = maximal_matchings(g, opts.mode);
  if (moves.empty()) return res;

  AutomorphismGroup group = automorphisms(g, opts.max_group_order);
  if (opts.problem == Problem::kBroadcast)
    group = vertex_stabilizer(group, opts.source);
  const Canonicalizer canon(n, std::move(group));
  res.group_order = canon.group_order();
  res.group_complete = canon.group().complete;

  if (opts.problem == Problem::kBroadcast) {
    res.root_lower_bound =
        heur.broadcast_h(static_cast<std::uint16_t>(1u << opts.source));
    broadcast_bfs(moves, canon, n, opts, res);
    return res;
  }

  res.root_lower_bound = heur.gossip_h(initial_gossip_state(n));
  if (opts.want_witness) {
    gossip_bfs_witness(moves, opts.mode, canon, n, opts, res);
  } else {
    // threads == 1 runs the same batched loop serially, so counts and
    // stopping points match the threaded runs exactly.
    gossip_bfs(moves, opts.mode, canon, n, opts, res);
  }
  return res;
}

bool witness_valid(const graph::Digraph& g, const SolveOptions& opts,
                   const SolveResult& res) {
  if (res.rounds < 0 ||
      static_cast<int>(res.witness.size()) != res.rounds)
    return false;
  protocol::Protocol p;
  p.n = g.vertex_count();
  p.mode = opts.mode;
  p.rounds = res.witness;
  protocol::CompiledSchedule cs;
  try {
    cs = protocol::CompiledSchedule::compile(p, &g);
  } catch (const std::invalid_argument&) {
    return false;  // not matchings of the right mode / arcs outside g
  }
  if (opts.problem == Problem::kGossip) {
    const auto run = simulator::run_gossip(cs);
    return run.complete && run.completion_round == res.rounds;
  }
  if (opts.source < 0 || opts.source >= g.vertex_count()) return false;
  const auto reach = simulator::broadcast_reach(cs, opts.source);
  int worst = 0;
  for (int t : reach) {
    if (t < 0) return false;
    worst = std::max(worst, t);
  }
  return worst == res.rounds;
}

}  // namespace sysgo::search
