// Round-synchronous gossip simulator.
//
// Executes a protocol or systolic schedule against the whispering model:
// when arc (x, y) is active at round i, y additionally learns everything x
// knew at the beginning of round i.  Within a round the active arcs form a
// matching, so sequential arc processing is order-independent (full-duplex
// pairs are merged symmetrically).
//
// Execution always runs on a CompiledSchedule: the authoring-form overloads
// (Protocol, SystolicSchedule) compile first, so a round that is not a
// matching in the schedule's mode is rejected with std::invalid_argument
// naming the round, never simulated.
#pragma once

#include <cstdint>
#include <vector>

#include "protocol/compiled.hpp"
#include "protocol/protocol.hpp"
#include "protocol/systolic.hpp"
#include "simulator/knowledge.hpp"

namespace sysgo::simulator {

struct GossipOptions {
  bool parallel = false;       // multithread merges within a round
  bool track_completion = false;  // record per-vertex completion rounds
};

struct GossipResult {
  bool complete = false;  // every vertex learned every item
  int rounds_executed = 0;
  /// First round after which all vertices were complete (only when
  /// complete == true; 0 when complete before any round, i.e. n == 1).
  int completion_round = 0;
  /// Per-vertex completion rounds (filled when track_completion).
  std::vector<int> vertex_completion;
  /// Final knowledge counts per vertex.
  std::vector<int> final_counts;
};

/// Apply stored round r of a compiled schedule: a branch-light walk of the
/// round's flat spans — half-duplex merges along the contiguous arc span,
/// full-duplex along the tail < head pair list (no per-pair direction
/// filtering, no per-round heap hop).  Returns the bits the round added,
/// so 0 means the round changed nothing (run_periodic's stall signal).
std::int64_t apply_round(KnowledgeMatrix& know,
                         const protocol::CompiledSchedule& cs, int r,
                         bool parallel = false);

/// Run a finite protocol to its end (or early-exit once complete).  Compiles
/// first: throws std::invalid_argument for a structurally invalid round.
[[nodiscard]] GossipResult run_gossip(const protocol::Protocol& p,
                                      const GossipOptions& opts = {});

/// Compiled execution of a finite protocol's rounds, once through.  Throws
/// std::invalid_argument for a periodic compiled schedule (one period is
/// not a run; use gossip_time).
[[nodiscard]] GossipResult run_gossip(const protocol::CompiledSchedule& cs,
                                      const GossipOptions& opts = {});

/// Run a systolic schedule until gossip completes or max_rounds elapse.
/// Returns the completion round (gossip time), or -1 when incomplete.
/// Compiles first: throws std::invalid_argument for an invalid period.
[[nodiscard]] int gossip_time(const protocol::SystolicSchedule& sched,
                              int max_rounds, const GossipOptions& opts = {});

/// Compiled execution: periodic schedules wrap their stored rounds, finite
/// protocols stop at round_count().  The schedule runs once per item window
/// of item_window_width(n) items (one window, the whole matrix, for
/// n <= 5,632); the result is the largest window completion round, or -1
/// at the first window that misses the cap — exactly the whole-matrix
/// answer, with at most kItemWindowBytes of scratch per window.
[[nodiscard]] int gossip_time(const protocol::CompiledSchedule& cs,
                              int max_rounds, const GossipOptions& opts = {});

}  // namespace sysgo::simulator
