#include "simulator/batch.hpp"

#include <bit>
#include <stdexcept>

#include "simulator/kernels.hpp"
#include "simulator/periodic.hpp"

namespace sysgo::simulator {

// ------------------------------------------------------------ BatchKnowledge

BatchKnowledge::BatchKnowledge(int n, int lanes)
    : n_(n),
      lanes_(lanes),
      words_((static_cast<std::size_t>(lanes) + 63) / 64),
      stride_((words_ + 7) / 8 * 8),
      bits_(static_cast<std::size_t>(n) * stride_, 0),
      fresh_(stride_, 0),
      remaining_(static_cast<std::size_t>(lanes), n),
      completed_at_(static_cast<std::size_t>(lanes), -1) {}

void BatchKnowledge::credit_fresh(std::size_t word,
                                  std::uint64_t fresh_bits) noexcept {
  // Total fresh bits over a whole run is at most n * lanes (each row-lane
  // pair is credited once), so this scan is cheap in aggregate.
  while (fresh_bits != 0) {
    const int bit = std::countr_zero(fresh_bits);
    fresh_bits &= fresh_bits - 1;
    const std::size_t lane = word * 64 + static_cast<std::size_t>(bit);
    if (--remaining_[lane] == 0) {
      completed_at_[lane] = round_;
      ++done_;
    }
  }
}

void BatchKnowledge::mark(int v, int lane) noexcept {
  std::uint64_t& word =
      row_ptr(v)[static_cast<std::size_t>(lane) / 64];
  const std::uint64_t bit = std::uint64_t{1}
                            << (static_cast<std::size_t>(lane) % 64);
  if ((word & bit) == 0) {
    word |= bit;
    if (--remaining_[static_cast<std::size_t>(lane)] == 0) {
      completed_at_[static_cast<std::size_t>(lane)] = round_;
      ++done_;
    }
  }
}

bool BatchKnowledge::marked(int v, int lane) const noexcept {
  return (row_ptr(v)[static_cast<std::size_t>(lane) / 64] >>
          (static_cast<std::size_t>(lane) % 64)) & 1u;
}

void BatchKnowledge::merge_arcs(std::span<const graph::Arc> arcs) noexcept {
  // Within a round the arcs form a matching: half-duplex merges are
  // vertex-disjoint, and a full-duplex pair's two opposite arcs only
  // exchange with each other — sequential in-place unions therefore equal
  // the snapshot semantics of the serial broadcast step.
  const RowKernels& k = kernels();
  std::uint64_t* const base = bits_.data();
  const std::size_t stride = stride_;
  for (const graph::Arc& a : arcs) {
    const int added =
        k.merge_fresh(base + static_cast<std::size_t>(a.head) * stride,
                      base + static_cast<std::size_t>(a.tail) * stride,
                      fresh_.data(), stride);
    if (added == 0) continue;
    for (std::size_t w = 0; w < words_; ++w)
      if (fresh_[w] != 0) credit_fresh(w, fresh_[w]);
  }
}

// ------------------------------------------------------- batched broadcast

std::vector<int> broadcast_times_batch(const protocol::CompiledSchedule& cs,
                                       std::span<const int> sources,
                                       int max_rounds) {
  const int n = cs.n();
  for (const int s : sources)
    if (s < 0 || s >= n)
      throw std::invalid_argument(
          "broadcast_times_batch: source out of range");
  BatchKnowledge bk(n, static_cast<int>(sources.size()));
  bk.set_round(0);  // n == 1 lanes complete at 0, like broadcast_time
  for (std::size_t l = 0; l < sources.size(); ++l)
    bk.mark(sources[l], static_cast<int>(l));
  (void)run_periodic(
      cs.round_count(), cs.periodic(), max_rounds,
      [&](int r, int round_no) {
        bk.set_round(round_no);
        bk.merge_arcs(cs.round_arcs(r));
      },
      [&] { return bk.all_done(); });
  std::vector<int> times(sources.size());
  for (std::size_t l = 0; l < sources.size(); ++l)
    times[l] = bk.completed_at(static_cast<int>(l));
  return times;
}

std::vector<int> broadcast_times_all(const protocol::CompiledSchedule& cs,
                                     int max_rounds) {
  std::vector<int> sources(static_cast<std::size_t>(cs.n()));
  for (int v = 0; v < cs.n(); ++v) sources[static_cast<std::size_t>(v)] = v;
  return broadcast_times_batch(cs, sources, max_rounds);
}

// ----------------------------------------------------------- gossip batching

KnowledgeMatrix& GossipArena::acquire(int n) {
  if (!know_ || know_->size() != n)
    know_ = std::make_unique<KnowledgeMatrix>(n);
  else
    know_->reset();
  return *know_;
}

int gossip_time(const protocol::CompiledSchedule& cs, int max_rounds,
                const GossipOptions& opts, GossipArena& arena) {
  KnowledgeMatrix& know = arena.acquire(cs.n());
  return run_periodic(
      cs.round_count(), cs.periodic(), max_rounds,
      [&](int r, int) { apply_round(know, cs, r, opts.parallel); },
      [&] { return know.all_full(); });
}

std::vector<int> run_gossip_batch(
    std::span<const protocol::CompiledSchedule* const> batch, int max_rounds,
    const GossipOptions& opts) {
  GossipArena arena;
  std::vector<int> times(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    times[i] = gossip_time(*batch[i], max_rounds, opts, arena);
  return times;
}

}  // namespace sysgo::simulator
