#include "synth/synthesizer.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "obs/wall_timer.hpp"
#include "protocol/builders.hpp"
#include "protocol/compiled.hpp"
#include "synth/draft.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sysgo::synth {

namespace {

using graph::Arc;
using protocol::Mode;

/// Synthesis observability (catalog in README "Observability").  Move
/// counters are charged once per restart from the anneal totals — the inner
/// annealing loop records only the per-evaluation replay-depth histogram
/// (one relaxed atomic next to a whole simulation).
struct SynthMetrics {
  obs::Counter& restarts_run = obs::counter("synth.restarts_run");
  obs::Counter& moves_proposed = obs::counter("synth.moves_proposed");
  obs::Counter& moves_accepted = obs::counter("synth.moves_accepted");
  obs::Counter& improvements = obs::counter("synth.improvements");
  // Rounds simulated per draft evaluation (a round count, not micros).
  obs::Histogram& replay_depth = obs::histogram("synth.replay_depth");
  obs::Gauge& last_best_objective = obs::gauge("synth.last_best_objective");
  // One scope per restart, and one around the whole call (which also
  // covers the coloring build and the best-of-K).
  obs::ScopeSite restart{"synth.restart"};
  obs::ScopeSite synthesize{"synth.synthesize"};
};

SynthMetrics& synth_metrics() {
  static SynthMetrics m;
  return m;
}

[[maybe_unused]] const bool kSynthMetricsRegistered = (synth_metrics(), true);

/// Candidate link pool: the arcs a draft may activate.  Half-duplex drafts
/// draw from g's arcs; full-duplex drafts from the tail < head edges of
/// g's undirected support (matching the edge-coloring builder).
std::vector<Arc> candidate_links(const graph::Digraph& g, Mode mode) {
  std::vector<Arc> pool;
  if (mode == Mode::kFullDuplex) {
    for (const auto& [u, v] : g.undirected_edges()) pool.push_back({u, v});
  } else {
    pool.assign(g.arcs().begin(), g.arcs().end());
  }
  return pool;
}

struct RestartOutcome {
  Objective objective;  // the anneal's capped score, then the full re-score
  protocol::SystolicSchedule schedule;
  std::int64_t proposed = 0;
  std::int64_t accepted = 0;
  std::int64_t improved = 0;  // accepted moves that beat the restart's best
};

/// One annealing run from `initial`.  Self-contained: consumes only its own
/// Rng stream, so outcomes are independent of restart scheduling.
RestartOutcome anneal(const protocol::SystolicSchedule& initial,
                      const std::vector<Arc>& pool, int period_cap,
                      const SynthOptions& opts, util::Rng rng) {
  const obs::WallTimer timer;
  ScheduleDraft draft = ScheduleDraft::from_schedule(initial);
  // Inner evaluations run under an adaptive round cap — a candidate that
  // cannot beat (twice) the incumbent is cut off instead of simulating to
  // the user's full budget.  The cap is a pure function of the incumbent,
  // so results stay deterministic; the per-restart winner is re-scored at
  // the full budget by the caller.
  const int base_cap = std::min(
      opts.objective.max_rounds, std::max(256, 16 * initial.n));
  // The hot path scores drafts directly: no per-move CompiledSchedule
  // build and no per-move allocation (the evaluator's scratch matrix is
  // reused across the whole restart).  Drafts keep the matching property
  // and activate only pool links, so this yields the same objectives as
  // compiling first — the per-restart winner is still compiled (with the
  // membership check) by the caller before the final verdict.
  DraftEvaluator evaluator;
  obs::Histogram& replay_depth = synth_metrics().replay_depth;
  const auto eval = [&](const ScheduleDraft& d, int cap) {
    ObjectiveOptions capped = opts.objective;
    capped.max_rounds = cap;
    const Objective o = evaluator.evaluate(d, capped);
    // Rounds simulated: up to completion, to a stall, or the whole cap.
    replay_depth.record_micros(
        static_cast<std::uint64_t>(evaluator.rounds_simulated()));
    return o;
  };

  RestartOutcome out;
  Objective current = eval(draft, base_cap);
  out.objective = current;
  out.schedule = draft.to_schedule();

  constexpr double kT0 = 2.0;    // round-unit temperatures
  constexpr double kTEnd = 0.05;
  const double steps = opts.iterations > 1 ? opts.iterations - 1 : 1;
  // Snapshot-undo: every move starts by copying the draft into `backup`
  // and a rejected move swaps it back.  The copy assigns into the same
  // snapshot all restart long, so its per-round link and occupancy vectors
  // keep their capacity instead of being allocated afresh every move.
  ScheduleDraft backup = draft;
  for (int it = 0; it < opts.iterations; ++it) {
    if (opts.time_budget_ms > 0.0 && timer.millis() >= opts.time_budget_ms)
      break;
    ++out.proposed;
    backup = draft;

    bool changed = false;
    switch (rng.uniform_index(7)) {
      case 0: {  // insert a candidate link
        const int r = static_cast<int>(rng.uniform_index(
            static_cast<std::size_t>(draft.period())));
        changed = draft.insert(r, pool[rng.uniform_index(pool.size())]);
        break;
      }
      case 1: {  // remove a link
        const int r = static_cast<int>(rng.uniform_index(
            static_cast<std::size_t>(draft.period())));
        if (!draft.links(r).empty()) {
          (void)draft.remove(r, rng.uniform_index(draft.links(r).size()));
          changed = true;
        }
        break;
      }
      case 2: {  // replace a link within its round
        const int r = static_cast<int>(rng.uniform_index(
            static_cast<std::size_t>(draft.period())));
        if (!draft.links(r).empty()) {
          (void)draft.remove(r, rng.uniform_index(draft.links(r).size()));
          changed = draft.insert(r, pool[rng.uniform_index(pool.size())]);
        }
        break;
      }
      case 3: {  // move a link to another round
        const int from = static_cast<int>(rng.uniform_index(
            static_cast<std::size_t>(draft.period())));
        const int to = static_cast<int>(rng.uniform_index(
            static_cast<std::size_t>(draft.period())));
        if (from != to && !draft.links(from).empty()) {
          const Arc link =
              draft.remove(from, rng.uniform_index(draft.links(from).size()));
          changed = draft.insert(to, link);
        }
        break;
      }
      case 4: {  // rotate the period (changes the start phase)
        if (draft.period() > 1) {
          draft.rotate(1 + static_cast<int>(rng.uniform_index(
                               static_cast<std::size_t>(draft.period() - 1))));
          changed = true;
        }
        break;
      }
      case 5: {  // grow: a fresh empty round
        if (draft.period() < period_cap) {
          draft.insert_round(static_cast<int>(rng.uniform_index(
              static_cast<std::size_t>(draft.period()) + 1)));
          changed = true;
        }
        break;
      }
      case 6: {  // shrink: drop a round (links and all)
        if (draft.period() > 1) {
          (void)draft.remove_round(static_cast<int>(rng.uniform_index(
              static_cast<std::size_t>(draft.period()))));
          changed = true;
        }
        break;
      }
    }
    if (!changed) {
      std::swap(draft, backup);  // inapplicable or rejected-by-structure
      continue;
    }

    const int cap = current.feasible
                        ? std::min(opts.objective.max_rounds,
                                   2 * current.rounds + 16)
                        : base_cap;
    const Objective candidate = eval(draft, cap);
    const double delta = (candidate.score() - current.score()) / 1e6;
    const double temp =
        kT0 * std::pow(kTEnd / kT0, static_cast<double>(it) / steps);
    if (delta <= 0.0 || rng.uniform01() < std::exp(-delta / temp)) {
      ++out.accepted;
      current = candidate;
      if (better(candidate, out.objective)) {
        ++out.improved;
        out.objective = candidate;
        out.schedule = draft.to_schedule();
      }
    } else {
      std::swap(draft, backup);
    }
  }
  return out;
}

/// Initial schedule for restart r: the edge coloring for restart 0, seeded
/// random matchings for the rest.
protocol::SystolicSchedule initial_schedule(
    const graph::Digraph& g, int restart,
    const protocol::SystolicSchedule& coloring, const SynthOptions& opts,
    util::Rng& rng) {
  if (restart == 0) return coloring;
  const int s0 = coloring.period_length() > 0 ? coloring.period_length() : 1;
  return protocol::random_systolic_schedule(g, s0, opts.mode, rng);
}

}  // namespace

SynthResult synthesize(const graph::Digraph& g, const SynthOptions& opts) {
  const obs::Scope scope(synth_metrics().synthesize);
  if (g.vertex_count() < 2)
    throw std::invalid_argument("synthesize: need at least 2 vertices");
  if (g.vertex_count() > kMaxVertices)
    throw std::invalid_argument("synthesize: n = " +
                                std::to_string(g.vertex_count()) +
                                " exceeds the limit of " +
                                std::to_string(kMaxVertices) + " vertices");
  if (opts.restarts < 1)
    throw std::invalid_argument("synthesize: need restarts >= 1");
  if (opts.iterations < 0)
    throw std::invalid_argument("synthesize: need iterations >= 0");

  const std::vector<Arc> pool = candidate_links(g, opts.mode);
  if (pool.empty())
    throw std::invalid_argument("synthesize: graph has no links to schedule");
  // Half-duplex candidates are arcs of g; full-duplex support links only
  // check membership against symmetric networks (cf. edge_coloring_schedule).
  const graph::Digraph* membership =
      (opts.mode == Mode::kFullDuplex && !g.is_symmetric()) ? nullptr : &g;

  const protocol::SystolicSchedule coloring =
      protocol::edge_coloring_schedule(g, opts.mode);
  // Period ceiling for grow moves.
  const int period_cap = std::max(4, 2 * coloring.period_length());

  std::vector<RestartOutcome> outcomes(static_cast<std::size_t>(opts.restarts));
  const auto run_one = [&](std::size_t r) {
    obs::Scope restart(synth_metrics().restart);
    util::Rng rng(util::derive_seed(opts.seed, r));
    const auto initial =
        initial_schedule(g, static_cast<int>(r), coloring, opts, rng);
    RestartOutcome& out = outcomes[r];
    out = anneal(initial, pool, period_cap, opts, std::move(rng));
    // The anneal scored drafts directly, so the winner's one validation is
    // this compile (with the membership check); its objective is then
    // re-scored at the user's full round budget.
    out.objective = evaluate(
        protocol::CompiledSchedule::compile(out.schedule, membership),
        opts.objective);
    restart.arg("restart", static_cast<std::int64_t>(r));
    restart.arg("accepted", out.accepted);
    restart.arg("improved", out.improved);
  };
  std::unique_ptr<util::ThreadPool> own;
  util::pool_for(opts.threads, own).run_indexed(outcomes.size(), run_one);

  // Best-of-K over the full-budget objectives: strictly better wins; ties
  // keep the lowest restart index (the documented deterministic tie order).
  SynthResult result;
  result.restarts_run = opts.restarts;
  std::int64_t improved = 0;
  for (std::size_t r = 0; r < outcomes.size(); ++r) {
    result.moves_proposed += outcomes[r].proposed;
    result.moves_accepted += outcomes[r].accepted;
    improved += outcomes[r].improved;
    if (result.best_restart < 0 ||
        better(outcomes[r].objective, result.objective)) {
      result.best_restart = static_cast<int>(r);
      result.objective = outcomes[r].objective;
      result.schedule = outcomes[r].schedule;
    }
  }
  result.millis = scope.millis();
  auto& sm = synth_metrics();
  sm.restarts_run.add(static_cast<std::uint64_t>(opts.restarts));
  sm.moves_proposed.add(static_cast<std::uint64_t>(result.moves_proposed));
  sm.moves_accepted.add(static_cast<std::uint64_t>(result.moves_accepted));
  sm.improvements.add(static_cast<std::uint64_t>(improved));
  sm.last_best_objective.set(
      static_cast<std::int64_t>(result.objective.score()));
  return result;
}

}  // namespace sysgo::synth
