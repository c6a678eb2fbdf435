// Compact knowledge states for the exact-search solver.
//
// A gossip knowledge state on n vertices is the n x n boolean matrix
// K(v, u) = "v knows u's item".  The old BFS oracle packed
// the whole matrix into one 64-bit word, capping it at n <= 8; here each
// row is a 16-bit mask and a state is 12 rows (192 bits), so every n <= 12
// instance fits.  The all-zero state never occurs (every vertex knows its
// own item), which lets the open-addressing tables of state_set.hpp use it
// as the empty-slot marker.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "protocol/protocol.hpp"

namespace sysgo::search {

/// Hard cap of the state representation (12 rows x 16 bits).
inline constexpr int kMaxVertices = 12;

/// Knowledge state: rows[v] bit u set iff v knows u's item.  Rows past the
/// instance's n stay zero, so states of the same instance compare and hash
/// consistently.
struct State {
  std::array<std::uint16_t, kMaxVertices> rows{};

  friend bool operator==(const State&, const State&) = default;
  /// Lexicographic by rows — the total order used for canonicalization.
  friend auto operator<=>(const State&, const State&) = default;

  [[nodiscard]] bool is_zero() const noexcept {
    for (const std::uint16_t r : rows)
      if (r != 0) return false;
    return true;
  }
};

struct StateHash {
  [[nodiscard]] std::size_t operator()(const State& s) const noexcept;
};

/// Diagonal state: every vertex knows exactly its own item.
[[nodiscard]] State initial_gossip_state(int n);

/// Full state: every row is the complete n-bit mask.
[[nodiscard]] State gossip_goal_state(int n);

/// One communication round applied to a knowledge state.  Half-duplex: each
/// arc (tail -> head) merges tail's row into head's.  Full-duplex: rounds
/// list both arcs of each active pair; the pair's rows are unioned into
/// both endpoints.  The round must be a matching (checked by the callers'
/// move generation, not here).
[[nodiscard]] State apply_round(const State& s, const protocol::Round& round,
                                protocol::Mode mode);

/// Broadcast variant on informed-set masks: head becomes informed whenever
/// tail is.  Works unchanged for full-duplex rounds because they list both
/// directions of each active pair.
[[nodiscard]] std::uint16_t apply_round_mask(std::uint16_t informed,
                                             const protocol::Round& round);

}  // namespace sysgo::search
