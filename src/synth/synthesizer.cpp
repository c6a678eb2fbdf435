#include "synth/synthesizer.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "obs/trace.hpp"
#include "obs/wall_timer.hpp"
#include "protocol/builders.hpp"
#include "protocol/compiled.hpp"
#include "search/solver.hpp"
#include "search/state.hpp"
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
  obs::Histogram& restart_micros = obs::histogram("synth.restart.micros");
  obs::Histogram& synthesize_micros =
      obs::histogram("synth.synthesize.micros");
  // --perf: per-restart IPC / cache behavior of the annealing loop.
  obs::perf::PerfRollup restart_perf{"synth.restart"};
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
  Objective objective;
  protocol::SystolicSchedule schedule;
  std::int64_t proposed = 0;
  std::int64_t accepted = 0;
  std::int64_t improved = 0;  // accepted moves that beat the restart's best
};

/// One annealing run from `initial`.  Self-contained: consumes only its own
/// Rng stream, so outcomes are independent of restart scheduling.
RestartOutcome anneal(const protocol::SystolicSchedule& initial,
                      const std::vector<Arc>& pool, int max_period,
                      const SynthOptions& opts, util::Rng rng) {
  const obs::WallTimer timer;
  ScheduleDraft draft = ScheduleDraft::from_schedule(initial);
  // Inner evaluations run under an adaptive round cap — a candidate that
  // cannot beat (twice) the incumbent is cut off instead of simulating to
  // the user's full budget.  The cap is a pure function of the incumbent,
  // so results stay deterministic; the per-restart winner is re-evaluated
  // at the full budget by the caller.
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
    // Rounds simulated: up to completion, or the whole cap.
    replay_depth.record_micros(
        static_cast<std::uint64_t>(o.feasible ? o.rounds : cap));
    return o;
  };

  RestartOutcome out;
  Objective current = eval(draft, base_cap);
  out.objective = current;
  out.schedule = draft.to_schedule();

  constexpr double kT0 = 2.0;    // round-unit temperatures
  constexpr double kTEnd = 0.05;
  const double steps = opts.iterations > 1 ? opts.iterations - 1 : 1;
  for (int it = 0; it < opts.iterations; ++it) {
    if (opts.time_budget_ms > 0.0 && timer.millis() >= opts.time_budget_ms)
      break;
    ++out.proposed;
    // Snapshot-undo: drafts are small (period × links), so a full copy is
    // cheap next to the simulation below and makes every move trivially
    // reversible.
    const ScheduleDraft backup = draft;

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
        if (draft.period() < max_period) {
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
      draft = backup;  // inapplicable or rejected-by-structure: no-op
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
      draft = backup;
    }
  }
  return out;
}

/// Initial schedule for restart r (see header: coloring, witness, random).
protocol::SystolicSchedule initial_schedule(
    const graph::Digraph& g, int restart,
    const protocol::SystolicSchedule& coloring, const SynthOptions& opts,
    util::Rng& rng) {
  if (restart == 0) return coloring;
  if (restart == 1 && opts.exact_warm_start &&
      g.vertex_count() <= search::kMaxVertices) {
    search::SolveOptions so;
    so.problem = opts.objective.goal == Goal::kBroadcast
                     ? search::Problem::kBroadcast
                     : search::Problem::kGossip;
    so.source = opts.objective.source;
    so.mode = opts.mode;
    so.threads = 1;  // already inside a parallel restart
    so.want_witness = true;
    const auto res = search::solve(g, so);
    if (res.rounds > 0 && !res.witness.empty()) {
      protocol::SystolicSchedule s;
      s.n = g.vertex_count();
      s.mode = opts.mode;
      s.period = res.witness;  // the optimal protocol, read periodically
      return s;
    }
  }
  const int s0 = coloring.period_length() > 0 ? coloring.period_length() : 1;
  return protocol::random_systolic_schedule(g, s0, opts.mode, rng);
}

}  // namespace

SynthResult synthesize(const graph::Digraph& g, const SynthOptions& opts) {
  const obs::WallTimer timer;
  if (g.vertex_count() < 2)
    throw std::invalid_argument("synthesize: need at least 2 vertices");
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
  const int max_period =
      opts.max_period > 0
          ? opts.max_period
          : std::max(4, 2 * coloring.period_length());

  std::vector<RestartOutcome> outcomes(static_cast<std::size_t>(opts.restarts));
  const auto run_one = [&](std::size_t r) {
    const obs::ScopedTimer span(synth_metrics().restart_micros);
    obs::trace::TraceSpan trace_span(
        obs::trace::enabled() ? obs::trace::intern("synth.restart") : 0);
    // Declared after trace_span so the perf delta lands in its args.
    obs::perf::PerfScope perf_scope(synth_metrics().restart_perf);
    if (perf_scope.armed()) perf_scope.attach(&trace_span);
    util::Rng rng(util::derive_seed(opts.seed, r));
    const auto initial =
        initial_schedule(g, static_cast<int>(r), coloring, opts, rng);
    outcomes[r] = anneal(initial, pool, max_period, opts, std::move(rng));
    if (trace_span.armed()) {
      trace_span.arg(obs::trace::intern("restart"),
                     static_cast<std::int64_t>(r));
      trace_span.arg(obs::trace::intern("accepted"), outcomes[r].accepted);
      trace_span.arg(obs::trace::intern("improved"), outcomes[r].improved);
    }
  };
  if (opts.threads == 1) {
    for (std::size_t r = 0; r < outcomes.size(); ++r) run_one(r);
  } else {
    std::unique_ptr<util::ThreadPool> own;
    if (opts.threads > 1)
      own = std::make_unique<util::ThreadPool>(opts.threads - 1);
    (own ? *own : util::ThreadPool::instance())
        .run_indexed(outcomes.size(), run_one);
  }

  // Best-of-K: strictly better objective wins; ties keep the lowest
  // restart index (the documented deterministic tie order).  Each restart's
  // winner is compiled here — the one membership/validation pass per
  // restart, since the anneal scored drafts directly — and the K winners
  // are re-scored at the user's full round budget in one batch through a
  // shared scratch arena.
  std::vector<protocol::CompiledSchedule> winners;
  winners.reserve(outcomes.size());
  for (const RestartOutcome& o : outcomes)
    winners.push_back(
        protocol::CompiledSchedule::compile(o.schedule, membership));
  std::vector<const protocol::CompiledSchedule*> winner_ptrs;
  winner_ptrs.reserve(winners.size());
  for (const protocol::CompiledSchedule& cs : winners)
    winner_ptrs.push_back(&cs);
  const std::vector<Objective> fulls =
      evaluate_batch(winner_ptrs, opts.objective);

  SynthResult result;
  result.restarts_run = opts.restarts;
  std::int64_t improved = 0;
  for (std::size_t r = 0; r < outcomes.size(); ++r) {
    result.moves_proposed += outcomes[r].proposed;
    result.moves_accepted += outcomes[r].accepted;
    improved += outcomes[r].improved;
    if (result.best_restart < 0 || better(fulls[r], result.objective)) {
      result.best_restart = static_cast<int>(r);
      result.objective = fulls[r];
      result.schedule = outcomes[r].schedule;
    }
  }
  result.millis = timer.millis();
  auto& sm = synth_metrics();
  sm.restarts_run.add(static_cast<std::uint64_t>(opts.restarts));
  sm.moves_proposed.add(static_cast<std::uint64_t>(result.moves_proposed));
  sm.moves_accepted.add(static_cast<std::uint64_t>(result.moves_accepted));
  sm.improvements.add(static_cast<std::uint64_t>(improved));
  sm.last_best_objective.set(
      static_cast<std::int64_t>(result.objective.score()));
  sm.synthesize_micros.record_micros(timer.micros());
  return result;
}

}  // namespace sysgo::synth
