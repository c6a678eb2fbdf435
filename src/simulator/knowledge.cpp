#include "simulator/knowledge.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "simulator/kernels.hpp"

namespace sysgo::simulator {

namespace {

/// Words per row rounded up to a whole cache line (8 x 64-bit words), so
/// row starts stay 64-byte aligned.  Nothing reads the padding words: the
/// kernels merge only a row's logical words.  reset() still zeroes them in
/// its one pass over the buffer: they lie in their row's last cache line,
/// so skipping them writes no fewer lines, and a fill per row (one memset
/// call each) made reset slower.
constexpr std::size_t aligned_stride(std::size_t words) {
  return (words + 7) / 8 * 8;
}

constexpr std::size_t kLineBytes = 64;
constexpr int kLineItems = 512;  // one bit per item, 8 bits per byte

}  // namespace

int item_window_width(int n) noexcept {
  if (n <= 0) return n;
  const std::size_t lines = std::max<std::size_t>(
      1, kItemWindowBytes / (kLineBytes * static_cast<std::size_t>(n)));
  const std::size_t items = lines * kLineItems;
  return items >= static_cast<std::size_t>(n) ? n : static_cast<int>(items);
}

KnowledgeMatrix::KnowledgeMatrix(int n, int first_item, int item_count) {
  assign(n, first_item, item_count);
}

void KnowledgeMatrix::assign(int n, int first_item, int item_count) {
  if (n < 0 || first_item < 0 || item_count < 0 || first_item > n - item_count)
    throw std::invalid_argument("KnowledgeMatrix: item window [" +
                                std::to_string(first_item) + ", +" +
                                std::to_string(item_count) +
                                ") outside [0, " + std::to_string(n) + ")");
  n_ = n;
  first_ = first_item;
  items_ = item_count;
  words_ = (static_cast<std::size_t>(item_count) + 63) / 64;
  stride_ = aligned_stride(words_);
  bits_.resize(static_cast<std::size_t>(n) * stride_);
  counts_.resize(static_cast<std::size_t>(n));
  reset();
}

void KnowledgeMatrix::reset() noexcept {
  std::fill(bits_.begin(), bits_.end(), 0);
  std::fill(counts_.begin(), counts_.end(), 0);
  full_rows_ = 0;
  // Each processor starts with its own item, if the window holds it.
  for (int v = first_; v < first_ + items_; ++v) learn(v, v);
}

bool KnowledgeMatrix::knows(int v, int i) const noexcept {
  const auto bit = static_cast<std::size_t>(i - first_);
  return (row_ptr(v)[bit / 64] >> (bit % 64)) & 1u;
}

void KnowledgeMatrix::learn(int v, int i) noexcept {
  const auto bit = static_cast<std::size_t>(i - first_);
  std::uint64_t& word = row_ptr(v)[bit / 64];
  const std::uint64_t mask = std::uint64_t{1} << (bit % 64);
  if ((word & mask) == 0) {
    word |= mask;
    if (++counts_[static_cast<std::size_t>(v)] == items_) ++full_rows_;
  }
}

RowBlock KnowledgeMatrix::block() noexcept {
  return {bits_.data(), stride_, words_, counts_.data(), items_, &full_rows_};
}

std::int64_t KnowledgeMatrix::merge_arcs(
    std::span<const graph::Arc> arcs) noexcept {
  return kernels().merge_arcs(block(), arcs);
}

std::int64_t KnowledgeMatrix::merge_pairs(
    std::span<const graph::Arc> pairs) noexcept {
  return kernels().merge_pairs(block(), pairs);
}

}  // namespace sysgo::simulator
