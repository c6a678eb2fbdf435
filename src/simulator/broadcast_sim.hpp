// Broadcast simulator: reach times of a single item under a protocol.
// Used for sanity experiments (broadcast lower bounds are the baseline the
// paper improves on) and for verifying Definition 3.1's path condition.
//
// Like the gossip simulator, the authoring-form overloads compile first
// (std::invalid_argument for a round that is not a matching), and every
// entry throws std::invalid_argument for a source outside [0, n).
#pragma once

#include <vector>

#include "protocol/compiled.hpp"
#include "protocol/protocol.hpp"
#include "protocol/systolic.hpp"

namespace sysgo::simulator {

/// reach[v] = first round after which v knows src's item (0 for src itself,
/// -1 when the item never arrives within the protocol).
[[nodiscard]] std::vector<int> broadcast_reach(const protocol::Protocol& p, int src);

/// Compiled execution over a finite protocol's flat arc spans, one pass
/// through (the protocol overload compiles and calls this).  Throws
/// std::invalid_argument for a periodic compiled schedule (use
/// broadcast_time).
[[nodiscard]] std::vector<int> broadcast_reach(const protocol::CompiledSchedule& cs,
                                               int src);

/// Rounds until src's item reaches every vertex under the schedule, or -1.
[[nodiscard]] int broadcast_time(const protocol::SystolicSchedule& sched, int src,
                                 int max_rounds);

/// Compiled execution: periodic schedules wrap, finite protocols stop at
/// round_count().
[[nodiscard]] int broadcast_time(const protocol::CompiledSchedule& cs, int src,
                                 int max_rounds);

/// Definition 3.1 condition 2 checked exhaustively by simulation: every
/// ordered pair (x, y) is served within the protocol's length.
[[nodiscard]] bool achieves_gossip(const protocol::Protocol& p);

/// The full n x n arrival-time matrix: entry (src, dst) is the first round
/// after which dst knows src's item (0 on the diagonal, -1 when the item
/// never arrives).  Row src equals broadcast_reach(p, src).
[[nodiscard]] std::vector<std::vector<int>> arrival_times(const protocol::Protocol& p);

/// max over pairs of arrival time, or -1 when some pair is unserved —
/// the protocol's gossip completion round, computed item-exactly.
[[nodiscard]] int gossip_completion_from_arrivals(
    const std::vector<std::vector<int>>& arrivals);

}  // namespace sysgo::simulator
