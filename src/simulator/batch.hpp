// Reusable gossip scratch.
//
// GossipArena runs many full gossip evaluations through one scratch matrix:
// it hands out a reset KnowledgeMatrix or item window, reallocating only to
// grow, so a stream of evaluations — the engine's simulate jobs, the
// synthesizer's candidate scoring, a corpus run — stops paying an
// allocation + page-fault per evaluation.  Results are identical to the
// per-call gossip_time.
#pragma once

#include <memory>

#include "protocol/compiled.hpp"
#include "simulator/gossip_sim.hpp"
#include "simulator/knowledge.hpp"

namespace sysgo::simulator {

/// Reusable gossip scratch: acquire returns a reset KnowledgeMatrix —
/// the whole matrix, or an item window — reusing the storage of earlier
/// acquisitions and reallocating only when it must grow.
class GossipArena {
 public:
  [[nodiscard]] KnowledgeMatrix& acquire(int n) { return acquire(n, 0, n); }
  [[nodiscard]] KnowledgeMatrix& acquire(int n, int first_item,
                                         int item_count);

 private:
  std::unique_ptr<KnowledgeMatrix> know_;
};

/// gossip_time through a caller-provided arena: identical results to
/// simulator::gossip_time(cs, max_rounds, opts), minus the per-call
/// allocation.  The run goes one item window of item_window_width(n) items
/// at a time; see gossip_time in gossip_sim.hpp.
[[nodiscard]] int gossip_time(const protocol::CompiledSchedule& cs,
                              int max_rounds, const GossipOptions& opts,
                              GossipArena& arena);

}  // namespace sysgo::simulator
