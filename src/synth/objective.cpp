#include "synth/objective.hpp"

#include <stdexcept>
#include <vector>

#include "core/audit.hpp"
#include "simulator/knowledge.hpp"
#include "simulator/periodic.hpp"

namespace sysgo::synth {

namespace {

/// The one objective body behind evaluate, evaluate_batch and
/// DraftEvaluator.  links_of(r) yields stored round r's merge work list:
/// directed arcs (half duplex) or tail < head pair representatives (full
/// duplex) — CompiledSchedule::round_pairs and ScheduleDraft::links share
/// that form, and merge order within a matching is irrelevant.  compiled()
/// supplies the flat form the auditor consumes; it is called only when the
/// audit term is due.
template <typename LinksOf, typename Compiled>
Objective score_rounds(int n, protocol::Mode mode, int period, int links,
                       const ObjectiveOptions& opts,
                       simulator::GossipArena& arena, std::vector<char>& reach,
                       LinksOf&& links_of, Compiled&& compiled) {
  Objective obj;
  obj.period = period;
  obj.links = links;
  const bool full = mode == protocol::Mode::kFullDuplex;
  if (opts.goal == Goal::kGossip) {
    simulator::KnowledgeMatrix& know = arena.acquire(n);
    obj.rounds = simulator::run_periodic(
        period, /*periodic=*/true, opts.max_rounds,
        [&](int r, int) {
          if (full)
            know.merge_pairs(links_of(r));
          else
            know.merge_arcs(links_of(r));
        },
        [&] { return know.all_full(); });
    obj.feasible = obj.rounds >= 0;
    if (obj.feasible)
      obj.coverage = n * n;
    else
      for (int v = 0; v < n; ++v) obj.coverage += know.count(v);
  } else {
    if (opts.source < 0 || opts.source >= n)
      throw std::invalid_argument(
          "synth::evaluate: broadcast source out of range");
    reach.assign(static_cast<std::size_t>(n), 0);
    reach[static_cast<std::size_t>(opts.source)] = 1;
    int reached = 1;
    obj.rounds = simulator::run_periodic(
        period, /*periodic=*/true, opts.max_rounds,
        [&](int r, int) {
          // A vertex sits in at most one link per round, so marking
          // immediately equals start-of-round snapshot semantics.  A
          // half-duplex arc relays tail -> head; a full-duplex pair relays
          // whichever way the item flows.
          for (const graph::Arc& a : links_of(r)) {
            char& tail = reach[static_cast<std::size_t>(a.tail)];
            char& head = reach[static_cast<std::size_t>(a.head)];
            if (tail != head && (tail != 0 || full)) {
              tail = head = 1;
              ++reached;
            }
          }
        },
        [&] { return reached == n; });
    obj.feasible = obj.rounds >= 0;
    obj.coverage = reached;
  }
  if (opts.audit_gap && opts.goal == Goal::kGossip && obj.feasible) {
    const auto audit = core::audit_schedule(compiled());
    obj.audit_gap = static_cast<double>(obj.rounds - audit.round_lower_bound);
    if (obj.audit_gap < 0.0) obj.audit_gap = 0.0;  // audit is a lower bound
  }
  return obj;
}

Objective evaluate_with_scratch(const protocol::CompiledSchedule& cs,
                                const ObjectiveOptions& opts,
                                simulator::GossipArena& arena,
                                std::vector<char>& reach) {
  cs.require_periodic("synth::evaluate");
  const int links = static_cast<int>(cs.mode() == protocol::Mode::kFullDuplex
                                         ? cs.arc_total() / 2
                                         : cs.arc_total());
  return score_rounds(
      cs.n(), cs.mode(), cs.period_length(), links, opts, arena, reach,
      [&cs](int r) { return cs.round_pairs(r); },
      [&cs]() -> const protocol::CompiledSchedule& { return cs; });
}

}  // namespace

double Objective::score() const noexcept {
  if (!feasible)
    return 1e12 - static_cast<double>(coverage) * 1e3 +
           static_cast<double>(period);
  return static_cast<double>(rounds) * 1e6 + audit_gap * 1e4 +
         static_cast<double>(period) * 1e3 + static_cast<double>(links);
}

bool better(const Objective& a, const Objective& b) noexcept {
  // Authoritative lexicographic order — exact at any magnitude, unlike the
  // packed score() (whose decimal weights can invert adjacent criteria for
  // period >= 10 or links >= 1000).
  if (a.feasible != b.feasible) return a.feasible;
  if (!a.feasible) {
    if (a.coverage != b.coverage) return a.coverage > b.coverage;
    return a.period < b.period;
  }
  if (a.rounds != b.rounds) return a.rounds < b.rounds;
  if (a.audit_gap != b.audit_gap) return a.audit_gap < b.audit_gap;
  if (a.period != b.period) return a.period < b.period;
  return a.links < b.links;
}

Objective evaluate(const protocol::CompiledSchedule& cs,
                   const ObjectiveOptions& opts) {
  simulator::GossipArena arena;
  std::vector<char> reach;
  return evaluate_with_scratch(cs, opts, arena, reach);
}

std::vector<Objective> evaluate_batch(
    std::span<const protocol::CompiledSchedule* const> batch,
    const ObjectiveOptions& opts) {
  simulator::GossipArena arena;
  std::vector<char> reach;
  std::vector<Objective> out;
  out.reserve(batch.size());
  for (const protocol::CompiledSchedule* cs : batch)
    out.push_back(evaluate_with_scratch(*cs, opts, arena, reach));
  return out;
}

Objective DraftEvaluator::evaluate(const ScheduleDraft& draft,
                                   const ObjectiveOptions& opts) {
  return score_rounds(
      draft.n(), draft.mode(), draft.period(),
      static_cast<int>(draft.total_links()), opts, arena_, reach_,
      [&draft](int r) -> std::span<const graph::Arc> { return draft.links(r); },
      [&draft] {
        return protocol::CompiledSchedule::compile(draft.to_schedule());
      });
}

const std::uint64_t* DraftEvaluator::scratch_data() const noexcept {
  const simulator::KnowledgeMatrix* know = arena_.current();
  return know != nullptr ? know->row(0).data() : nullptr;
}

}  // namespace sysgo::synth
