#include "simulator/gossip_sim.hpp"

#include <atomic>

#include "simulator/batch.hpp"
#include "simulator/periodic.hpp"
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

GossipResult run_gossip(const protocol::CompiledSchedule& cs,
                        const GossipOptions& opts) {
  cs.require_finite("run_gossip");  // periodic schedules go through gossip_time
  const int n = cs.n();
  KnowledgeMatrix know(n);
  GossipResult res;
  if (opts.track_completion) {
    res.vertex_completion.assign(static_cast<std::size_t>(n), -1);
    for (int v = 0; v < n; ++v)
      if (know.row_full(v)) res.vertex_completion[static_cast<std::size_t>(v)] = 0;
  }
  const int t = run_periodic(
      cs.round_count(), /*periodic=*/false, cs.round_count(),
      [&](int r, int round_no) {
        const std::int64_t gained = apply_round(know, cs, r, opts.parallel);
        if (opts.track_completion)
          // Only endpoints of a round's arcs can change state.
          for (const auto& a : cs.round_arcs(r))
            for (int v : {a.tail, a.head})
              if (res.vertex_completion[static_cast<std::size_t>(v)] == -1 &&
                  know.row_full(v))
                res.vertex_completion[static_cast<std::size_t>(v)] = round_no;
        return gained;
      },
      [&] { return know.all_full(); });
  res.complete = t >= 0;
  res.rounds_executed = res.complete ? t : cs.round_count();
  res.completion_round = res.complete ? t : 0;
  res.final_counts.reserve(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) res.final_counts.push_back(know.count(v));
  return res;
}

int gossip_time(const protocol::CompiledSchedule& cs, int max_rounds,
                const GossipOptions& opts) {
  GossipArena arena;
  return gossip_time(cs, max_rounds, opts, arena);
}

}  // namespace sysgo::simulator
