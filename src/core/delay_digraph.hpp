// Delay digraph of a systolic gossip protocol (Definition 3.3).
//
// Vertices are arc activations (x, y, i): arc (x, y) active at round i.
// There is an arc from (x, y, i) to (y, z, j) whenever 1 <= j − i < s, with
// weight j − i — the delay an item incurs crossing (x, y) at round i and
// then (y, z) at round j.  Delays of s or more repeat an already-represented
// activation, hence the window.
//
// The one build path reads the flat arc spans of a periodic
// CompiledSchedule, so every activation it links has endpoints that
// compile checked against [0, n).
#pragma once

#include <utility>
#include <vector>

#include "protocol/compiled.hpp"

namespace sysgo::core {

/// One delay-digraph vertex: activation of (tail -> head) at round `round`
/// (1-based, matching the paper's A_1 ... A_t).
struct Activation {
  int tail = 0;
  int head = 0;
  int round = 0;
  friend bool operator==(const Activation&, const Activation&) = default;
};

/// A weighted arc of the delay digraph, by activation indices.
struct DelayArc {
  int from = 0;
  int to = 0;
  int weight = 0;  // the delay j - i, in [1, s-1]
};

class DelayDigraph {
 public:
  /// Build the first t rounds of a compiled periodic schedule with
  /// s = period length (s >= 2; std::invalid_argument otherwise, or for a
  /// finite compiled protocol).  Activations appear round by round in
  /// canonical (per-round sorted) arc order.
  DelayDigraph(const protocol::CompiledSchedule& cs, int t);

  [[nodiscard]] int period() const noexcept { return s_; }
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t arc_count() const noexcept { return arcs_.size(); }

  [[nodiscard]] const std::vector<Activation>& nodes() const noexcept {
    return nodes_;
  }
  [[nodiscard]] const std::vector<DelayArc>& arcs() const noexcept { return arcs_; }

  /// Index of an activation, or -1 when the arc was not active that round.
  [[nodiscard]] int find(int tail, int head, int round) const noexcept;

  /// Shortest weighted distance between two activation nodes (Dijkstra on
  /// the small weights); -1 when unreachable.  Used to validate the
  /// "overall delay" interpretation of DG paths.
  [[nodiscard]] int weighted_distance(int from, int to) const;

 private:
  int s_ = 0;
  std::vector<Activation> nodes_;
  std::vector<DelayArc> arcs_;
  std::vector<std::vector<std::pair<int, int>>> out_;  // (to, weight) per node
};

}  // namespace sysgo::core
