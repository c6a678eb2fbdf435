#include "simulator/gossip_sim.hpp"

#include <atomic>

#include "simulator/batch.hpp"
#include "util/thread_pool.hpp"

namespace sysgo::simulator {

std::int64_t apply_round(KnowledgeMatrix& know,
                         const protocol::CompiledSchedule& cs, int r,
                         bool parallel) {
  // The work list is one flat span, so the whole round is a single batch
  // call (disjoint sub-spans for the parallel blocks: a matching's merges
  // are independent, and each block adds its gain once).
  const bool full = cs.mode() == protocol::Mode::kFullDuplex;
  const auto merge = [&](std::span<const graph::Arc> links) {
    return full ? know.merge_pairs(links) : know.merge_arcs(links);
  };
  const auto links = cs.round_pairs(r);
  if (!parallel) return merge(links);
  std::atomic<std::int64_t> gained{0};
  util::ThreadPool::instance().run_blocks(
      links.size(),
      [&](std::size_t lo, std::size_t hi) {
        gained.fetch_add(merge(links.subspan(lo, hi - lo)),
                         std::memory_order_relaxed);
      },
      512);
  return gained.load(std::memory_order_relaxed);
}

int gossip_time(const protocol::CompiledSchedule& cs, int max_rounds,
                const GossipOptions& opts) {
  GossipArena arena;
  return gossip_time(cs, max_rounds, opts, arena);
}

}  // namespace sysgo::simulator
