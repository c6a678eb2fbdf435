#include "simulator/batch.hpp"

#include <algorithm>

#include "simulator/periodic.hpp"

namespace sysgo::simulator {

KnowledgeMatrix& GossipArena::acquire(int n, int first_item, int item_count) {
  if (!know_)
    know_ = std::make_unique<KnowledgeMatrix>(n, first_item, item_count);
  else
    know_->assign(n, first_item, item_count);
  return *know_;
}

int gossip_time(const protocol::CompiledSchedule& cs, int max_rounds,
                const GossipOptions& opts, GossipArena& arena) {
  // A merge ORs whole rows, so each item's column evolves on its own: the
  // matrix is full exactly when every item window is, at the largest
  // window completion round, and misses the cap when any window does.
  const int n = cs.n();
  const int width = item_window_width(n);
  int rounds = 0;
  for (int first = 0; first < n; first += width) {
    KnowledgeMatrix& know = arena.acquire(n, first, std::min(width, n - first));
    const int t = run_periodic(
        cs.period_length(), max_rounds,
        [&](int r, int) { return apply_round(know, cs, r, opts.parallel); },
        [&] { return know.all_full(); });
    if (t < 0) return -1;
    rounds = std::max(rounds, t);
  }
  return rounds;
}

}  // namespace sysgo::simulator
