#include "search/symmetry.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace sysgo::search {

std::vector<int> vertex_classes(const graph::Digraph& g) {
  const int n = g.vertex_count();
  std::vector<int> color(static_cast<std::size_t>(n), 0);

  // Initial colors: (out-degree, in-degree), densified in sorted order so
  // the classification is canonical.
  {
    std::map<std::pair<int, int>, int> ids;
    for (int v = 0; v < n; ++v)
      ids.emplace(std::pair{g.out_degree(v), g.in_degree(v)}, 0);
    int next = 0;
    for (auto& [key, id] : ids) id = next++;
    for (int v = 0; v < n; ++v)
      color[static_cast<std::size_t>(v)] =
          ids.at({g.out_degree(v), g.in_degree(v)});
  }

  // Refine: a vertex's signature is (color, sorted out-neighbor colors,
  // sorted in-neighbor colors).  Densify signatures in sorted order each
  // round; stop at a fixed point.
  for (;;) {
    using Signature = std::pair<int, std::pair<std::vector<int>, std::vector<int>>>;
    std::vector<Signature> sig(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) {
      std::vector<int> out, in;
      for (int w : g.out_neighbors(v)) out.push_back(color[static_cast<std::size_t>(w)]);
      for (int w : g.in_neighbors(v)) in.push_back(color[static_cast<std::size_t>(w)]);
      std::sort(out.begin(), out.end());
      std::sort(in.begin(), in.end());
      sig[static_cast<std::size_t>(v)] = {color[static_cast<std::size_t>(v)],
                                          {std::move(out), std::move(in)}};
    }
    std::map<Signature, int> ids;
    for (const auto& s : sig) ids.emplace(s, 0);
    int next = 0;
    for (auto& [key, id] : ids) id = next++;
    bool changed = false;
    for (int v = 0; v < n; ++v) {
      const int c = ids.at(sig[static_cast<std::size_t>(v)]);
      changed = changed || c != color[static_cast<std::size_t>(v)];
      color[static_cast<std::size_t>(v)] = c;
    }
    if (!changed) return color;
  }
}

namespace {

struct AutoSearch {
  const graph::Digraph& g;
  const std::vector<int>& color;
  std::size_t max_order;
  int n;
  Perm assign;               // assign[v] = image of v for v < depth
  std::vector<bool> used;    // image already taken
  std::vector<Perm> found;
  bool aborted = false;

  void run(int depth) {
    if (aborted) return;
    if (depth == n) {
      if (found.size() >= max_order) {
        aborted = true;
        return;
      }
      found.push_back(assign);
      return;
    }
    const auto v = static_cast<std::size_t>(depth);
    for (int w = 0; w < n; ++w) {
      if (used[static_cast<std::size_t>(w)]) continue;
      if (color[v] != color[static_cast<std::size_t>(w)]) continue;
      bool ok = true;
      for (int j = 0; j < depth && ok; ++j) {
        const int pj = assign[static_cast<std::size_t>(j)];
        ok = g.has_arc(depth, j) == g.has_arc(w, pj) &&
             g.has_arc(j, depth) == g.has_arc(pj, w);
      }
      if (!ok) continue;
      assign[v] = w;
      used[static_cast<std::size_t>(w)] = true;
      run(depth + 1);
      used[static_cast<std::size_t>(w)] = false;
      if (aborted) return;
    }
  }
};

Perm identity_perm(int n) {
  Perm id(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) id[static_cast<std::size_t>(v)] = v;
  return id;
}

}  // namespace

AutomorphismGroup automorphisms(const graph::Digraph& g, std::size_t max_order) {
  const int n = g.vertex_count();
  AutomorphismGroup group;
  if (n == 0) {
    group.perms.push_back({});
    return group;
  }
  const auto color = vertex_classes(g);
  AutoSearch search{g,
                    color,
                    max_order,
                    n,
                    Perm(static_cast<std::size_t>(n), -1),
                    std::vector<bool>(static_cast<std::size_t>(n), false),
                    {},
                    false};
  search.run(0);
  if (search.aborted) {
    group.perms.push_back(identity_perm(n));
    group.complete = false;
    return group;
  }
  group.perms = std::move(search.found);
  // Put the identity first (enumeration emits images in increasing order,
  // so it is already the lexicographically smallest — assert by moving it).
  const Perm id = identity_perm(n);
  const auto it = std::find(group.perms.begin(), group.perms.end(), id);
  if (it == group.perms.end())
    throw std::logic_error("automorphisms: identity not found");
  std::iter_swap(group.perms.begin(), it);
  return group;
}

AutomorphismGroup vertex_stabilizer(const AutomorphismGroup& group, int v) {
  AutomorphismGroup stab;
  stab.complete = group.complete;
  for (const Perm& p : group.perms)
    if (p[static_cast<std::size_t>(v)] == v) stab.perms.push_back(p);
  return stab;
}

Canonicalizer::Canonicalizer(int n, AutomorphismGroup group)
    : n_(n), group_(std::move(group)) {
  if (n < 0 || n > kMaxVertices)
    throw std::invalid_argument("Canonicalizer: n <= 12 required");
  const std::size_t k = group_.perms.size();
  if (k == 0) throw std::invalid_argument("Canonicalizer: empty group");
  for (const Perm& p : group_.perms)
    if (static_cast<int>(p.size()) != n)
      throw std::invalid_argument("Canonicalizer: permutation size mismatch");
  // Runs by the source of row 0, p^{-1}(0), in group order within a run
  // (n = 0 keeps one run of empty rows).
  const auto source = [&](std::uint32_t i) {
    const Perm& p = group_.perms[i];
    return static_cast<std::size_t>(std::find(p.begin(), p.end(), 0) -
                                    p.begin());
  };
  order_.resize(k);
  std::iota(order_.begin(), order_.end(), 0u);
  std::stable_sort(order_.begin(), order_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return source(a) < source(b);
                   });
  run_.assign(static_cast<std::size_t>(std::max(n, 1)) + 1, 0);
  for (const std::uint32_t i : order_) ++run_[source(i) + 1];
  std::partial_sum(run_.begin(), run_.end(), run_.begin());

  inv_.resize(k);
  lo_.assign(64 * k, 0);
  hi_.assign(64 * k, 0);
  for (std::size_t j = 0; j < k; ++j) {
    const Perm& p = group_.perms[order_[j]];
    inv_[j].fill(0);
    for (int v = 0; v < n; ++v)
      inv_[j][static_cast<std::size_t>(p[static_cast<std::size_t>(v)])] =
          static_cast<std::uint8_t>(v);
    // Column tables over 6-bit halves: table[mask] = OR of image bits.
    for (unsigned m = 0; m < 64; ++m) {
      std::uint16_t lo = 0, hi = 0;
      for (int b = 0; b < 6; ++b) {
        if (!((m >> b) & 1u)) continue;
        if (b < n)
          lo = static_cast<std::uint16_t>(
              lo | (1u << p[static_cast<std::size_t>(b)]));
        if (b + 6 < n)
          hi = static_cast<std::uint16_t>(
              hi | (1u << p[static_cast<std::size_t>(b + 6)]));
      }
      lo_[m * k + j] = lo;
      hi_[m * k + j] = hi;
    }
  }
  // Each run's minimum row-0 image of every row mask, one element at a
  // time: its images of the masks sharing bits 6..11 differ only in the
  // low table's entry.
  const std::size_t runs = run_.size() - 1;
  run_stride_ = std::max<std::size_t>(std::size_t{1} << n, 64);
  run_min_.assign(runs * run_stride_, UINT16_MAX);
  std::array<std::uint16_t, 64> lo_image{};
  for (std::size_t u = 0; u < runs; ++u)
    for (std::uint32_t j = run_[u]; j < run_[u + 1]; ++j) {
      for (std::size_t m = 0; m < 64; ++m) lo_image[m] = lo_[m * k + j];
      for (std::size_t high = 0; high < run_stride_; high += 64) {
        const std::uint16_t hi = hi_[(high >> 6) * k + j];
        std::uint16_t* const min = &run_min_[u * run_stride_ + high];
        for (std::size_t m = 0; m < 64; ++m)
          min[m] = std::min(min[m], static_cast<std::uint16_t>(lo_image[m] | hi));
      }
    }
}

State Canonicalizer::canonical(const State& s, std::size_t* perm_index,
                               std::uint64_t* ties) const {
  const std::size_t k = order_.size();
  // Run positions of the elements tied on every row scored so far.
  thread_local std::vector<std::uint32_t> tied;
  if (tied.size() < k) tied.resize(k);
  std::uint32_t* const t = tied.data();
  std::uint16_t min = UINT16_MAX;
  std::size_t count = 0;
  // Keeps j if its row ties the running minimum, restarting the list at a
  // new minimum.  It writes at or before the entry being read, so the list
  // narrows in place.
  const auto keep = [&](std::uint16_t row, std::uint32_t j) {
    if (row < min) {
      min = row;
      count = 0;
    }
    t[count] = j;
    count += row == min;
  };
  // Row 0's minimum comes from the run table; only the runs reaching it
  // are scanned, in run order, so the ties are those of a full scan.
  const std::size_t runs = run_.size() - 1;
  const std::size_t row_mask = (std::size_t{1} << n_) - 1;
  const auto run_min = [&](std::size_t u) {
    return run_min_[u * run_stride_ + (s.rows[u] & row_mask)];
  };
  for (std::size_t u = 0; u < runs; ++u) min = std::min(min, run_min(u));
  for (std::size_t u = 0; u < runs; ++u) {
    if (run_min(u) != min) continue;
    const std::uint16_t mask = s.rows[u];
    const std::uint16_t* lo = &lo_[(mask & 63u) * k];
    const std::uint16_t* hi = &hi_[((mask >> 6) & 63u) * k];
    for (std::uint32_t j = run_[u]; j < run_[u + 1]; ++j) {
      t[count] = j;
      count += static_cast<std::uint16_t>(lo[j] | hi[j]) == min;
    }
  }
  if (ties != nullptr) *ties += count;
  State best;
  best.rows[0] = min;
  // Row v of p(s) is colperm_p(rows[p^{-1}(v)]); a lone survivor's rows
  // need no comparison.
  const auto sn = static_cast<std::size_t>(n_);
  std::size_t v = 1;
  for (; v < sn && count > 1; ++v) {
    const std::size_t alive = count;
    min = UINT16_MAX;
    count = 0;
    for (std::size_t i = 0; i < alive; ++i)
      keep(col_permute(t[i], s.rows[inv_[t[i]][v]]), t[i]);
    best.rows[v] = min;
  }
  for (; v < sn; ++v) best.rows[v] = col_permute(t[0], s.rows[inv_[t[0]][v]]);
  // Every survivor maps s to best; report the lowest group index.
  if (perm_index != nullptr) {
    std::uint32_t index = order_[t[0]];
    for (std::size_t i = 1; i < count; ++i) index = std::min(index, order_[t[i]]);
    *perm_index = index;
  }
  return best;
}

std::uint16_t Canonicalizer::canonical_mask(std::uint16_t mask) const {
  std::uint16_t best = mask;
  for (std::size_t j = 0; j < order_.size(); ++j)
    best = std::min(best, col_permute(j, mask));
  return best;
}

}  // namespace sysgo::search
