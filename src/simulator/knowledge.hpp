// Knowledge state of a gossip run: one bitset row per processor recording
// which items it currently holds.  Rows are 64-bit word packed and stored
// at a 64-byte-aligned stride (words rounded up to a cache line; the
// padding words are never read), so a round's merges are single kernel
// calls — merge_arcs and merge_pairs each hand the whole round to one
// simulator/kernels op, dispatched to the widest SIMD ISA the host
// supports, and vector loads never split a cache line.
//
// The columns are an item window: all n rows, but only items
// [first_item, first_item + item_count) — the whole matrix by default.  A
// merge ORs whole rows, so each item's column evolves independently of the
// others, and a run over windows that cover [0, n) is exactly a run over
// the whole matrix (see gossip_time and src/simulator/README.md).
//
// Per-row item counts and the number of full rows are maintained
// incrementally by every mutation, so count / row_full / all_full are O(1)
// — the simulator's per-round completion check no longer rescans the
// matrix.  Rows are only ever mutated by one thread per round (matchings
// touch distinct heads; full-duplex pairs are disjoint), and each merge
// call adds the rows it filled to the shared full-row counter with one
// atomic add, so parallel merges over disjoint sub-spans stay race free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "util/aligned.hpp"

namespace sysgo::simulator {

struct RowBlock;  // simulator/kernels.hpp

/// Scratch budget of one item window: gossip_time splits the items into
/// windows whose n rows fit in this many bytes, so a round's merges stay
/// in cache instead of streaming an O(n^2)-bit matrix.  4 MiB gave the
/// lowest total simulate time of the budgets measured (1 to 16 MiB and the
/// whole matrix; see src/simulator/README.md, "Item windows").
inline constexpr std::size_t kItemWindowBytes = std::size_t{4} << 20;

/// Items per window for an n-vertex run: the widest whole number of cache
/// lines (512 items each) whose n rows fit in kItemWindowBytes, at least
/// one cache line, and n itself when that covers every item (n <= 5,632).
[[nodiscard]] int item_window_width(int n) noexcept;

class KnowledgeMatrix {
 public:
  /// The whole matrix: every item is a column.
  explicit KnowledgeMatrix(int n) : KnowledgeMatrix(n, 0, n) {}

  /// An item window: n rows, items [first_item, first_item + item_count)
  /// as columns.  Throws std::invalid_argument unless the window lies in
  /// [0, n).
  KnowledgeMatrix(int n, int first_item, int item_count);

  /// Re-shape to (n, first_item, item_count) and reset, reusing the
  /// storage when it is large enough — the arena's per-window hook.
  void assign(int n, int first_item, int item_count);

  /// Rows (processors).
  [[nodiscard]] int size() const noexcept { return n_; }

  /// The item window: items [first_item(), first_item() + item_count()).
  [[nodiscard]] int first_item() const noexcept { return first_; }
  [[nodiscard]] int item_count() const noexcept { return items_; }

  /// Logical words per row (ceil(item_count / 64)); the aligned stride may
  /// be wider.
  [[nodiscard]] std::size_t words() const noexcept { return words_; }

  /// Re-initialize to the start state without reallocating: a row holds
  /// its own item when that item is inside the window, and nothing else.
  void reset() noexcept;

  /// Does vertex v know item i?  i must lie inside the window.
  [[nodiscard]] bool knows(int v, int i) const noexcept;

  /// Grant item i (inside the window) to vertex v.
  void learn(int v, int i) noexcept;

  /// Half-duplex round over a compiled round's flat arc span (tail -> head
  /// per arc): head's row |= tail's row, as one kernel call; a merge into a
  /// full row or from an empty one is skipped without touching its words.
  /// Within one matching the merges are independent, so disjoint sub-spans
  /// may run concurrently.  Returns the bits the rows gained (0: nothing
  /// changed).
  std::int64_t merge_arcs(std::span<const graph::Arc> arcs) noexcept;

  /// Full-duplex round over a tail < head pair list: both rows of each pair
  /// become their union, as one kernel call; each direction is skipped when
  /// its destination is full or its source empty.  Returns the bits the
  /// rows gained.
  std::int64_t merge_pairs(std::span<const graph::Arc> pairs) noexcept;

  /// Number of window items vertex v knows.  O(1).
  [[nodiscard]] int count(int v) const noexcept {
    return counts_[static_cast<std::size_t>(v)];
  }

  /// Vertex v knows every item of the window.  O(1).
  [[nodiscard]] bool row_full(int v) const noexcept {
    return count(v) == items_;
  }

  /// Every vertex knows every item of the window.  O(1).
  [[nodiscard]] bool all_full() const noexcept { return full_rows_ == n_; }

  /// Row v's logical words; bit j is item first_item() + j.  The data
  /// pointer is 64-byte aligned for every row (regression-tested for n in
  /// 1..200).
  [[nodiscard]] std::span<const std::uint64_t> row(int v) const noexcept {
    return {bits_.data() + static_cast<std::size_t>(v) * stride_, words_};
  }

 private:
  /// The storage and counts as the kernels' round ops see them.
  [[nodiscard]] RowBlock block() noexcept;

  [[nodiscard]] std::uint64_t* row_ptr(int v) noexcept {
    return bits_.data() + static_cast<std::size_t>(v) * stride_;
  }
  [[nodiscard]] const std::uint64_t* row_ptr(int v) const noexcept {
    return bits_.data() + static_cast<std::size_t>(v) * stride_;
  }

  int n_ = 0;
  int first_ = 0;           // first item of the window
  int items_ = 0;           // items in the window
  std::size_t words_ = 0;   // logical words per row: ceil(items_ / 64)
  std::size_t stride_ = 0;  // allocated words per row: words_ rounded to 8
  util::CacheAlignedVector<std::uint64_t> bits_;
  std::vector<int> counts_;  // window items known per row
  int full_rows_ = 0;        // rows with counts_[v] == items_
};

}  // namespace sysgo::simulator
