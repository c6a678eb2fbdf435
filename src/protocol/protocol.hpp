// Gossip protocol rounds and modes (Definition 3.1).
//
// A protocol of length t on a digraph G is a sequence ⟨A_1 … A_t⟩ of arc
// subsets; each round must be a matching.  Half-duplex and directed
// protocols share matching semantics; full-duplex rounds activate opposite
// arc pairs.  A t-round protocol is t-systolic (Definition 3.2 holds
// vacuously for s = t), so it is authored as the SystolicSchedule whose
// period is its t rounds (systolic.hpp) and run with a cap of t rounds.
// Validity is checked in one place, CompiledSchedule::compile
// (compiled.hpp), which every executor's input goes through.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>
#include <vector>

#include "graph/digraph.hpp"

namespace sysgo::protocol {

using graph::Arc;

/// Communication discipline of a protocol (Section 3).
enum class Mode {
  kHalfDuplex,  // covers the directed case: one direction per active link
  kFullDuplex,  // active links carry both directions simultaneously
};

/// Number of Mode enumerators.
inline constexpr std::size_t kModeCount = 2;

/// "half" | "full": the mode's token in schedule files, sweep records and
/// CLI arguments.
[[nodiscard]] std::string_view mode_token(Mode m);
/// The mode spelled by `token`, or nullopt; callers word their own error.
[[nodiscard]] std::optional<Mode> parse_mode_token(std::string_view token) noexcept;

/// One communication round: the set of active arcs.
struct Round {
  std::vector<Arc> arcs;

  /// Canonical (sorted) form; rounds compare as sets.
  void canonicalize();
  friend bool operator==(const Round&, const Round&) = default;
};

}  // namespace sysgo::protocol
