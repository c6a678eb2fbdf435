#include "simulator/knowledge.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>

#include "simulator/kernels.hpp"

namespace sysgo::simulator {

namespace {

/// Words per row rounded up to a whole cache line (8 x 64-bit words), so
/// row starts stay 64-byte aligned and the kernels never take a tail path
/// on this storage.  Padding words hold zeros forever: learn() only sets
/// bits inside the window, and OR-merges of zeros are zeros.
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

void KnowledgeMatrix::bump(int v, int added) noexcept {
  if (added == 0) return;
  int& c = counts_[static_cast<std::size_t>(v)];
  c += added;
  if (c == items_)
    std::atomic_ref<int>(full_rows_).fetch_add(1, std::memory_order_relaxed);
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
    bump(v, 1);
  }
}

void KnowledgeMatrix::merge_into(int dst, int src) noexcept {
  bump(dst, kernels().merge_delta(row_ptr(dst), row_ptr(src), stride_));
}

void KnowledgeMatrix::merge_both(int a, int b) noexcept {
  int deltas[2];
  kernels().merge_both_delta(row_ptr(a), row_ptr(b), stride_, deltas);
  bump(a, deltas[0]);
  bump(b, deltas[1]);
}

std::int64_t KnowledgeMatrix::merge_arcs(
    std::span<const graph::Arc> arcs) noexcept {
  // One kernel fetch and one base/stride resolution for the whole span —
  // the per-arc work is two pointer adds and the kernel call.
  const RowKernels& k = kernels();
  std::uint64_t* const base = bits_.data();
  const std::size_t stride = stride_;
  std::int64_t gained = 0;
  for (const graph::Arc& a : arcs) {
    // A full head row can gain nothing, nor can any row from an empty
    // tail; the tail row is never written within a matching round, so both
    // count reads are stable.
    if (counts_[static_cast<std::size_t>(a.head)] == items_ ||
        counts_[static_cast<std::size_t>(a.tail)] == 0)
      continue;
    const int added =
        k.merge_delta(base + static_cast<std::size_t>(a.head) * stride,
                      base + static_cast<std::size_t>(a.tail) * stride, stride);
    bump(a.head, added);
    gained += added;
  }
  return gained;
}

std::int64_t KnowledgeMatrix::merge_pairs(
    std::span<const graph::Arc> pairs) noexcept {
  const RowKernels& k = kernels();
  std::uint64_t* const base = bits_.data();
  const std::size_t stride = stride_;
  std::int64_t gained = 0;
  for (const graph::Arc& p : pairs) {
    // A row gains nothing when it is full or its partner is empty.
    const int ca = counts_[static_cast<std::size_t>(p.tail)];
    const int cb = counts_[static_cast<std::size_t>(p.head)];
    const bool a_gains = ca != items_ && cb != 0;
    const bool b_gains = cb != items_ && ca != 0;
    if (!a_gains && !b_gains) continue;
    std::uint64_t* const ra = base + static_cast<std::size_t>(p.tail) * stride;
    std::uint64_t* const rb = base + static_cast<std::size_t>(p.head) * stride;
    int deltas[2] = {0, 0};
    if (!a_gains)
      deltas[1] = k.merge_delta(rb, ra, stride);
    else if (!b_gains)
      deltas[0] = k.merge_delta(ra, rb, stride);
    else
      k.merge_both_delta(ra, rb, stride, deltas);
    bump(p.tail, deltas[0]);
    bump(p.head, deltas[1]);
    gained += deltas[0] + deltas[1];
  }
  return gained;
}

}  // namespace sysgo::simulator
