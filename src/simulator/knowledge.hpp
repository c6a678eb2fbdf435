// Knowledge state of a gossip run: one bitset row per processor recording
// which of the n items it currently holds.  Rows are 64-bit word packed and
// stored at a 64-byte-aligned stride (words rounded up to a cache line;
// padding words are always zero), so a round's merges are single kernel
// calls — simulator/kernels dispatches them to the widest SIMD ISA the host
// supports, and vector loads never split a cache line.
//
// Per-row item counts and the number of full rows are maintained
// incrementally by every mutation, so count / row_full / all_full are O(1)
// — the simulator's per-round completion check no longer rescans the
// matrix.  Rows are only ever mutated by one thread per round (matchings
// touch distinct heads; full-duplex pairs are disjoint), and the shared
// full-row counter is updated with atomic increments, so parallel merges
// stay race free.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "util/aligned.hpp"

namespace sysgo::simulator {

class KnowledgeMatrix {
 public:
  explicit KnowledgeMatrix(int n);

  [[nodiscard]] int size() const noexcept { return n_; }

  /// Logical words per row (ceil(n / 64)); the aligned stride may be wider.
  [[nodiscard]] std::size_t words() const noexcept { return words_; }

  /// Re-initialize to the identity start state (each processor holds its
  /// own item) without reallocating — the arena/evaluator reuse hook.
  void reset() noexcept;

  /// Does vertex v know item i?
  [[nodiscard]] bool knows(int v, int i) const noexcept;

  /// Grant item i to vertex v.
  void learn(int v, int i) noexcept;

  /// dst's row |= src's row.
  void merge_into(int dst, int src) noexcept;

  /// Symmetric merge: both rows become their union (full-duplex exchange).
  void merge_both(int a, int b) noexcept;

  /// Batch form of merge_into over a compiled round's flat arc span
  /// (tail -> head per arc): one call per round, already-full destination
  /// rows skipped without touching their words.  Within one matching the
  /// merges are independent, so disjoint sub-spans may run concurrently.
  void merge_arcs(std::span<const graph::Arc> arcs) noexcept;

  /// Batch form of merge_both over a round's tail < head pair list;
  /// pairs whose rows are both full are skipped.
  void merge_pairs(std::span<const graph::Arc> pairs) noexcept;

  /// Number of items vertex v knows.  O(1).
  [[nodiscard]] int count(int v) const noexcept {
    return counts_[static_cast<std::size_t>(v)];
  }

  /// Vertex v knows all n items.  O(1).
  [[nodiscard]] bool row_full(int v) const noexcept { return count(v) == n_; }

  /// All vertices know all items.  O(1).
  [[nodiscard]] bool all_full() const noexcept { return full_rows_ == n_; }

  /// Row v's logical words.  The data pointer is 64-byte aligned for every
  /// row (regression-tested for n in 1..200).
  [[nodiscard]] std::span<const std::uint64_t> row(int v) const noexcept {
    return {bits_.data() + static_cast<std::size_t>(v) * stride_, words_};
  }

 private:
  [[nodiscard]] std::uint64_t* row_ptr(int v) noexcept {
    return bits_.data() + static_cast<std::size_t>(v) * stride_;
  }
  [[nodiscard]] const std::uint64_t* row_ptr(int v) const noexcept {
    return bits_.data() + static_cast<std::size_t>(v) * stride_;
  }

  /// Record `added` new items on row v (atomic full-row bookkeeping).
  void bump(int v, int added) noexcept;

  int n_ = 0;
  std::size_t words_ = 0;   // logical words per row: ceil(n / 64)
  std::size_t stride_ = 0;  // allocated words per row: words_ rounded to 8
  util::CacheAlignedVector<std::uint64_t> bits_;
  std::vector<int> counts_;  // items known per row
  int full_rows_ = 0;        // rows with counts_[v] == n_
};

}  // namespace sysgo::simulator
