// Round-synchronous gossip simulator.
//
// Executes a protocol or systolic schedule against the whispering model:
// when arc (x, y) is active at round i, y additionally learns everything x
// knew at the beginning of round i.  Within a round the active arcs form a
// matching, so sequential arc processing is order-independent (full-duplex
// pairs are merged symmetrically).
//
// Every entry takes a CompiledSchedule, the one validated form: a caller
// compiles its SystolicSchedule once, and a round that is not a matching in
// the schedule's mode is rejected there with std::invalid_argument naming
// the round, never simulated.  A finite t-round protocol is the schedule
// whose period is its t rounds, run with max_rounds = t.
#pragma once

#include <cstdint>

#include "protocol/compiled.hpp"
#include "simulator/knowledge.hpp"

namespace sysgo::simulator {

struct GossipOptions {
  bool parallel = false;  // multithread merges within a round
};

/// Apply stored round r of a compiled schedule: a branch-light walk of the
/// round's flat spans — half-duplex merges along the contiguous arc span,
/// full-duplex along the tail < head pair list (no per-pair direction
/// filtering, no per-round heap hop).  Returns the bits the round added,
/// so 0 means the round changed nothing (run_periodic's stall signal).
std::int64_t apply_round(KnowledgeMatrix& know,
                         const protocol::CompiledSchedule& cs, int r,
                         bool parallel = false);

/// Run until gossip completes or max_rounds elapse; returns the completion
/// round (gossip time), or -1 when incomplete.  The period wraps.  The
/// schedule runs once per item window of item_window_width(n) items (one
/// window, the whole matrix, for n <= 5,632); the result is the largest
/// window completion round, or -1 at the first window that misses the cap
/// — exactly the whole-matrix answer, with at most kItemWindowBytes of
/// scratch per window.
[[nodiscard]] int gossip_time(const protocol::CompiledSchedule& cs,
                              int max_rounds, const GossipOptions& opts = {});

}  // namespace sysgo::simulator
