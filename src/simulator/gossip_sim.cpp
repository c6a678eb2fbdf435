#include "simulator/gossip_sim.hpp"

#include "simulator/batch.hpp"
#include "simulator/periodic.hpp"
#include "util/thread_pool.hpp"

namespace sysgo::simulator {

void apply_round(KnowledgeMatrix& know, const protocol::CompiledSchedule& cs,
                 int r, bool parallel) {
  // The work list is one flat span, so the whole round is a single batch
  // call (disjoint sub-spans for the parallel blocks: a matching's merges
  // are independent).
  if (cs.mode() == protocol::Mode::kFullDuplex) {
    const auto pairs = cs.round_pairs(r);
    if (parallel)
      util::ThreadPool::instance().run_blocks(
          pairs.size(),
          [&](std::size_t lo, std::size_t hi) {
            know.merge_pairs(pairs.subspan(lo, hi - lo));
          },
          512);
    else
      know.merge_pairs(pairs);
  } else {
    const auto arcs = cs.round_arcs(r);
    if (parallel)
      util::ThreadPool::instance().run_blocks(
          arcs.size(),
          [&](std::size_t lo, std::size_t hi) {
            know.merge_arcs(arcs.subspan(lo, hi - lo));
          },
          512);
    else
      know.merge_arcs(arcs);
  }
}

GossipResult run_gossip(const protocol::Protocol& p, const GossipOptions& opts) {
  return run_gossip(protocol::CompiledSchedule::compile(p), opts);
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
        apply_round(know, cs, r, opts.parallel);
        if (!opts.track_completion) return;
        // Only endpoints of a round's arcs can change state.
        for (const auto& a : cs.round_arcs(r))
          for (int v : {a.tail, a.head})
            if (res.vertex_completion[static_cast<std::size_t>(v)] == -1 &&
                know.row_full(v))
              res.vertex_completion[static_cast<std::size_t>(v)] = round_no;
      },
      [&] { return know.all_full(); });
  res.complete = t >= 0;
  res.rounds_executed = res.complete ? t : cs.round_count();
  res.completion_round = res.complete ? t : 0;
  res.final_counts.reserve(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) res.final_counts.push_back(know.count(v));
  return res;
}

int gossip_time(const protocol::SystolicSchedule& sched, int max_rounds,
                const GossipOptions& opts) {
  return gossip_time(protocol::CompiledSchedule::compile(sched), max_rounds,
                     opts);
}

int gossip_time(const protocol::CompiledSchedule& cs, int max_rounds,
                const GossipOptions& opts) {
  GossipArena arena;
  return gossip_time(cs, max_rounds, opts, arena);
}

}  // namespace sysgo::simulator
