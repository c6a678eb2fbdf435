// Broadcast simulator: reach times of a single item under a protocol.
// Used for sanity experiments (broadcast lower bounds are the baseline the
// paper improves on) and for verifying Definition 3.1's path condition.
//
// Like the gossip simulator, every entry takes a CompiledSchedule (the
// caller compiles, which validates, once), and every entry throws
// std::invalid_argument for a source outside [0, n).
#pragma once

#include <vector>

#include "protocol/compiled.hpp"

namespace sysgo::simulator {

/// reach[v] = first round after which v knows src's item (0 for src itself,
/// -1 when the item never arrives within the protocol), from one pass over
/// a compiled finite protocol's flat arc spans.  Throws
/// std::invalid_argument for a periodic compiled schedule (use
/// broadcast_time).
[[nodiscard]] std::vector<int> broadcast_reach(const protocol::CompiledSchedule& cs,
                                               int src);

/// Rounds until src's item reaches every vertex, or -1: periodic schedules
/// wrap, finite protocols stop at round_count().
[[nodiscard]] int broadcast_time(const protocol::CompiledSchedule& cs, int src,
                                 int max_rounds);

/// The full n x n arrival-time matrix of a compiled finite protocol: entry
/// (src, dst) is the first round after which dst knows src's item (0 on the
/// diagonal, -1 when the item never arrives).  Row src equals
/// broadcast_reach(cs, src); the tests' item-exact reference for the
/// gossip simulator.
[[nodiscard]] std::vector<std::vector<int>> arrival_times(
    const protocol::CompiledSchedule& cs);

/// max over pairs of arrival time, or -1 when some pair is unserved —
/// the protocol's gossip completion round, computed item-exactly.
[[nodiscard]] int gossip_completion_from_arrivals(
    const std::vector<std::vector<int>>& arrivals);

}  // namespace sysgo::simulator
