// Batched compiled-schedule execution.
//
// Two batching axes, both built on the SIMD row kernels:
//
// 1. BatchKnowledge — a structure-of-arrays single-item state: B lanes x
//    n rows, lane-major words.  Row v packs one bit per lane ("row v is
//    informed in lane l"), padded to a 64-byte-aligned stride, so one
//    row-union advances ALL lanes of an arc at once.  The flagship use is
//    broadcast_times_batch: completion times from B sources in ONE pass of
//    the compiled schedule — the round decode (span fetch, arc walk) that a
//    per-source loop repeats B times is paid once, and the per-arc work is
//    a B-bit-wide kernel call.  Per-lane completion is tracked from the
//    kernels' fresh-bit masks, so results are exactly the serial ones.
//
// 2. GossipArena / run_gossip_batch — many full gossip evaluations through
//    one reusable scratch matrix: the arena hands out a reset
//    KnowledgeMatrix or item window (reallocating only to grow), so a
//    stream of evaluations — the engine's simulate jobs, the synthesizer's
//    candidate scoring, a corpus run — stops paying an allocation +
//    page-fault per evaluation.  Results are identical to the per-call
//    gossip_time.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "protocol/compiled.hpp"
#include "simulator/gossip_sim.hpp"
#include "simulator/knowledge.hpp"
#include "util/aligned.hpp"

namespace sysgo::simulator {

/// B lanes x n rows of single-bit state, lane-major words: row v's words
/// pack lane bits [0, lanes); rows sit at a 64-byte-aligned stride.
class BatchKnowledge {
 public:
  BatchKnowledge(int n, int lanes);

  [[nodiscard]] int size() const noexcept { return n_; }
  [[nodiscard]] int lanes() const noexcept { return lanes_; }

  /// Mark row v in lane `lane` (idempotent).
  void mark(int v, int lane) noexcept;
  [[nodiscard]] bool marked(int v, int lane) const noexcept;

  /// rows[head] |= rows[tail] for every arc; lanes whose last unmarked row
  /// got marked complete at the current round (see set_round).
  void merge_arcs(std::span<const graph::Arc> arcs) noexcept;

  /// Rounds are 1-based like the simulators; mark()s before the first
  /// set_round complete at round 0 (the n == 1 convention).
  void set_round(int round) noexcept { round_ = round; }

  /// Lanes whose every row is marked.
  [[nodiscard]] int lanes_done() const noexcept { return done_; }
  [[nodiscard]] bool all_done() const noexcept { return done_ == lanes_; }

  /// Round at which lane `lane` completed, -1 while incomplete.
  [[nodiscard]] int completed_at(int lane) const noexcept {
    return completed_at_[static_cast<std::size_t>(lane)];
  }

  /// Rows marked in lane `lane` so far (coverage signal).
  [[nodiscard]] int marked_count(int lane) const noexcept {
    return n_ - remaining_[static_cast<std::size_t>(lane)];
  }

 private:
  [[nodiscard]] std::uint64_t* row_ptr(int v) noexcept {
    return bits_.data() + static_cast<std::size_t>(v) * stride_;
  }
  [[nodiscard]] const std::uint64_t* row_ptr(int v) const noexcept {
    return bits_.data() + static_cast<std::size_t>(v) * stride_;
  }
  void credit_fresh(std::size_t word, std::uint64_t fresh_bits) noexcept;

  int n_ = 0;
  int lanes_ = 0;
  std::size_t words_ = 0;   // ceil(lanes / 64)
  std::size_t stride_ = 0;  // words_ rounded up to a cache line
  int round_ = 0;
  int done_ = 0;
  util::CacheAlignedVector<std::uint64_t> bits_;
  util::CacheAlignedVector<std::uint64_t> fresh_;  // kernel gain-mask scratch
  std::vector<int> remaining_;     // unmarked rows per lane
  std::vector<int> completed_at_;  // -1 while incomplete
};

/// Broadcast completion time for every source in `sources`, computed in one
/// pass of the schedule (SoA lanes; one round decode for the whole batch).
/// Entry l equals broadcast_time(cs, sources[l], max_rounds).  Throws
/// std::invalid_argument for an out-of-range source.
[[nodiscard]] std::vector<int> broadcast_times_batch(
    const protocol::CompiledSchedule& cs, std::span<const int> sources,
    int max_rounds);

/// All-sources convenience form: sources = 0..n-1.
[[nodiscard]] std::vector<int> broadcast_times_all(
    const protocol::CompiledSchedule& cs, int max_rounds);

/// Reusable gossip scratch: acquire returns a reset KnowledgeMatrix —
/// the whole matrix, or an item window — reusing the storage of earlier
/// acquisitions and reallocating only when it must grow.
class GossipArena {
 public:
  [[nodiscard]] KnowledgeMatrix& acquire(int n) { return acquire(n, 0, n); }
  [[nodiscard]] KnowledgeMatrix& acquire(int n, int first_item,
                                         int item_count);

  /// The matrix the last acquire() returned (nullptr before the first).
  [[nodiscard]] const KnowledgeMatrix* current() const noexcept {
    return know_.get();
  }

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

/// Gossip times of many compiled schedules through one shared arena (mixed
/// n allowed; the arena reallocates on change, so group by n for best
/// reuse).  Entry i equals gossip_time(*batch[i], max_rounds, opts).
[[nodiscard]] std::vector<int> run_gossip_batch(
    std::span<const protocol::CompiledSchedule* const> batch, int max_rounds,
    const GossipOptions& opts = {});

}  // namespace sysgo::simulator
