#include "synth/objective.hpp"

#include "simulator/knowledge.hpp"
#include "simulator/periodic.hpp"

namespace sysgo::synth {

namespace {

/// The one objective body behind evaluate and DraftEvaluator.  links_of(r)
/// yields stored round r's merge work list: directed arcs (half duplex) or
/// tail < head pair representatives (full duplex) —
/// CompiledSchedule::round_pairs and ScheduleDraft::links share that form,
/// and merge order within a matching is irrelevant.  `simulated` receives
/// the rounds the run executed.
template <typename LinksOf>
Objective score_rounds(int n, protocol::Mode mode, int period, int links,
                       const ObjectiveOptions& opts,
                       simulator::GossipArena& arena, int& simulated,
                       LinksOf&& links_of) {
  Objective obj;
  obj.period = period;
  obj.links = links;
  const bool full = mode == protocol::Mode::kFullDuplex;
  simulator::KnowledgeMatrix& know = arena.acquire(n);
  simulated = 0;
  obj.rounds = simulator::run_periodic(
      period, opts.max_rounds,
      [&](int r, int i) {
        simulated = i;
        return full ? know.merge_pairs(links_of(r))
                    : know.merge_arcs(links_of(r));
      },
      [&] { return know.all_full(); });
  obj.feasible = obj.rounds >= 0;
  if (obj.feasible)
    obj.coverage = n * n;
  else
    for (int v = 0; v < n; ++v) obj.coverage += know.count(v);
  return obj;
}

}  // namespace

double Objective::score() const noexcept {
  if (!feasible)
    return 1e12 - static_cast<double>(coverage) * 1e3 +
           static_cast<double>(period);
  return static_cast<double>(rounds) * 1e6 +
         static_cast<double>(period) * 1e3 + static_cast<double>(links);
}

bool better(const Objective& a, const Objective& b) noexcept {
  // Authoritative lexicographic order — exact at any magnitude, unlike the
  // packed score() (whose decimal weights can invert adjacent criteria for
  // period >= 1000 or links >= 1000).
  if (a.feasible != b.feasible) return a.feasible;
  if (!a.feasible) {
    if (a.coverage != b.coverage) return a.coverage > b.coverage;
    return a.period < b.period;
  }
  if (a.rounds != b.rounds) return a.rounds < b.rounds;
  if (a.period != b.period) return a.period < b.period;
  return a.links < b.links;
}

Objective evaluate(const protocol::CompiledSchedule& cs,
                   const ObjectiveOptions& opts) {
  const int links = static_cast<int>(cs.mode() == protocol::Mode::kFullDuplex
                                         ? cs.arc_total() / 2
                                         : cs.arc_total());
  simulator::GossipArena arena;
  int simulated = 0;
  return score_rounds(cs.n(), cs.mode(), cs.period_length(), links, opts,
                      arena, simulated,
                      [&cs](int r) { return cs.round_pairs(r); });
}

Objective DraftEvaluator::evaluate(const ScheduleDraft& draft,
                                   const ObjectiveOptions& opts) {
  return score_rounds(
      draft.n(), draft.mode(), draft.period(),
      static_cast<int>(draft.total_links()), opts, arena_, simulated_,
      [&draft](int r) -> std::span<const graph::Arc> { return draft.links(r); });
}

}  // namespace sysgo::synth
