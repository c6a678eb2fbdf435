// Gossip protocol representation (Definition 3.1).
//
// A protocol of length t on a digraph G is a sequence ⟨A_1 … A_t⟩ of arc
// subsets; each round must be a matching.  Half-duplex and directed
// protocols share matching semantics; full-duplex rounds activate opposite
// arc pairs.  Validity is checked in one place, CompiledSchedule::compile
// (compiled.hpp), which every executor's input goes through.
#pragma once

#include <vector>

#include "graph/digraph.hpp"

namespace sysgo::protocol {

using graph::Arc;

/// Communication discipline of a protocol (Section 3).
enum class Mode {
  kHalfDuplex,  // covers the directed case: one direction per active link
  kFullDuplex,  // active links carry both directions simultaneously
};

/// One communication round: the set of active arcs.
struct Round {
  std::vector<Arc> arcs;

  /// Canonical (sorted) form; rounds compare as sets.
  void canonicalize();
  friend bool operator==(const Round&, const Round&) = default;
};

/// A finite protocol on n vertices.
struct Protocol {
  int n = 0;
  Mode mode = Mode::kHalfDuplex;
  std::vector<Round> rounds;

  [[nodiscard]] int length() const noexcept { return static_cast<int>(rounds.size()); }
};

/// Definition 3.2: A_i = A_{i+s} for all applicable i.
[[nodiscard]] bool is_systolic(const Protocol& p, int s);

/// Smallest s >= 1 such that the protocol is s-systolic
/// (= p.length() when aperiodic).
[[nodiscard]] int minimal_period(const Protocol& p);

}  // namespace sysgo::protocol
