#include "core/delay_digraph.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace sysgo::core {

DelayDigraph::DelayDigraph(const protocol::CompiledSchedule& cs, int t)
    : s_(cs.period_length()) {
  cs.require_periodic("DelayDigraph");
  if (s_ < 2) throw std::invalid_argument("DelayDigraph: period must be >= 2");
  for (int i = 1; i <= t; ++i)
    for (const auto& a : cs.round_arcs(cs.round_index(i)))
      nodes_.push_back({a.tail, a.head, i});

  // Per middle-vertex y: activations entering y and leaving y, by round.
  // in_at[y] = (round, node), out_at[y] = (round, node).
  const auto n = static_cast<std::size_t>(cs.n());
  std::vector<std::vector<std::pair<int, int>>> in_at(n), out_at(n);
  for (std::size_t idx = 0; idx < nodes_.size(); ++idx) {
    const auto& act = nodes_[idx];
    in_at[static_cast<std::size_t>(act.head)].emplace_back(act.round,
                                                           static_cast<int>(idx));
    out_at[static_cast<std::size_t>(act.tail)].emplace_back(act.round,
                                                            static_cast<int>(idx));
  }

  out_.assign(nodes_.size(), {});
  for (std::size_t y = 0; y < n; ++y) {
    auto& ins = in_at[y];
    auto& outs = out_at[y];
    if (ins.empty() || outs.empty()) continue;
    std::sort(ins.begin(), ins.end());
    std::sort(outs.begin(), outs.end());
    for (const auto& [i, from] : ins) {
      // Arcs to outgoing activations at rounds j with 1 <= j - i < s.
      auto lo = std::lower_bound(outs.begin(), outs.end(), std::pair{i + 1, -1});
      auto hi = std::lower_bound(outs.begin(), outs.end(), std::pair{i + s_, -1});
      for (auto it = lo; it != hi; ++it) {
        arcs_.push_back({from, it->second, it->first - i});
        out_[static_cast<std::size_t>(from)].emplace_back(it->second,
                                                          it->first - i);
      }
    }
  }
}

int DelayDigraph::find(int tail, int head, int round) const noexcept {
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (nodes_[i] == Activation{tail, head, round}) return static_cast<int>(i);
  return -1;
}

int DelayDigraph::weighted_distance(int from, int to) const {
  if (from < 0 || to < 0 || static_cast<std::size_t>(from) >= nodes_.size() ||
      static_cast<std::size_t>(to) >= nodes_.size())
    throw std::out_of_range("DelayDigraph::weighted_distance: bad node index");
  std::vector<int> dist(nodes_.size(), -1);
  using Item = std::pair<int, int>;  // (dist, node)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  pq.push({0, from});
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (dist[static_cast<std::size_t>(u)] != -1) continue;
    dist[static_cast<std::size_t>(u)] = d;
    if (u == to) return d;
    for (const auto& [v, w] : out_[static_cast<std::size_t>(u)])
      if (dist[static_cast<std::size_t>(v)] == -1) pq.push({d + w, v});
  }
  return dist[static_cast<std::size_t>(to)];
}

}  // namespace sysgo::core
