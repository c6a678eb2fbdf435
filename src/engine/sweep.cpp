#include "engine/sweep.hpp"

#include <algorithm>
#include <limits>

#include "core/separator_bound.hpp"
#include "graph/search.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "obs/wall_timer.hpp"
#include "protocol/builders.hpp"
#include "search/solver.hpp"
#include "search/state.hpp"
#include "separator/separator.hpp"
#include "simulator/batch.hpp"
#include "simulator/gossip_sim.hpp"
#include "store/result_store.hpp"
#include "synth/synthesizer.hpp"
#include "util/thread_pool.hpp"

namespace sysgo::engine {

namespace {

/// Engine observability (catalog in README "Observability").  Each job
/// runs in the scope of its task kind, engine.task.<name>; the sites live
/// in a Task-indexed vector so run_job pays no name lookup per job.
struct EngineMetrics {
  obs::Counter& jobs_completed = obs::counter("engine.jobs_completed");
  obs::Gauge& jobs_inflight = obs::gauge("engine.jobs_inflight");
  obs::Gauge& inflight_highwater =
      obs::gauge("engine.jobs_inflight_highwater");
  obs::Counter& cache_hits = obs::counter("engine.cache.hits");
  obs::Counter& cache_misses = obs::counter("engine.cache.misses");
  std::vector<obs::ScopeSite> task_sites;

  EngineMetrics() {
    for (int t = 0; t <= static_cast<int>(Task::kSynthesize); ++t)
      task_sites.emplace_back("engine.task." +
                              task_name(static_cast<Task>(t)));
  }
};

EngineMetrics& engine_metrics() {
  static EngineMetrics m;
  return m;
}

[[maybe_unused]] const bool kEngineMetricsRegistered =
    (engine_metrics(), true);

/// In-flight accounting that survives the sentinel early-returns and any
/// exception a job throws.
struct InflightGuard {
  InflightGuard() {
    auto& em = engine_metrics();
    em.jobs_inflight.add(1);
    em.inflight_highwater.record_max(em.jobs_inflight.value());
  }
  ~InflightGuard() { engine_metrics().jobs_inflight.add(-1); }
};

}  // namespace

// ------------------------------------------------------------ ArtifactCache

struct ArtifactCache::Entry {
  std::mutex mutex;
  std::shared_ptr<const ScenarioArtifacts> value;
};

std::shared_ptr<const ScenarioArtifacts> ArtifactCache::get_or_build(
    const ScenarioKey& key, std::uint64_t seed, const Builder& build) {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = map_.try_emplace(SeededKey{key, seed});
    if (inserted) {
      it->second = std::make_shared<Entry>();
      ++misses_;
      engine_metrics().cache_misses.add(1);
    } else {
      ++hits_;
      engine_metrics().cache_hits.add(1);
    }
    entry = it->second;
  }
  // Build outside the map lock; concurrent requests for the same key wait
  // here on the single build.
  std::lock_guard<std::mutex> lock(entry->mutex);
  if (!entry->value) entry->value = build();
  return entry->value;
}

ArtifactCache::Stats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {hits_, misses_};
}

void ArtifactCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  map_.clear();
  hits_ = 0;
  misses_ = 0;
}

// -------------------------------------------------------------- SweepRunner

SweepRunner::SweepRunner(SweepOptions opts)
    : opts_(std::move(opts)), pool_(&util::pool_for(opts_.threads, own_pool_)) {}

SweepRunner::~SweepRunner() = default;

std::shared_ptr<const ScenarioArtifacts> SweepRunner::artifacts(
    const ScenarioKey& key, std::uint64_t seed) {
  const auto build = [&key, seed]() {
    auto art = std::make_shared<ScenarioArtifacts>();
    art->graph = topology::make_family(key.family, key.d, key.D, seed);
    art->schedule = protocol::edge_coloring_schedule(art->graph, key.mode);
    // The one structural validation of this scenario's schedule; every
    // task below executes the pre-validated flat form.  The coloring
    // schedule is built on the member's undirected support, so for the
    // directed families its half-duplex backward rounds activate reversals
    // absent from the digraph — membership is only checkable against
    // symmetric members.
    const bool check_membership = art->graph.is_symmetric();
    art->compiled = protocol::CompiledSchedule::compile(
        art->schedule, check_membership ? &art->graph : nullptr);
    return std::shared_ptr<const ScenarioArtifacts>(std::move(art));
  };
  return cache_.get_or_build(key, seed, build);
}

SweepRecord SweepRunner::run_job(const SweepJob& job,
                                 const ExecutionLimits& limits) {
  const InflightGuard inflight;
  auto& em = engine_metrics();
  // One scope per job, named by task so `sysgo trace report` breaks stages
  // down per task kind.
  obs::Scope scope(em.task_sites[static_cast<std::size_t>(job.task)]);
  if (scope.traced()) scope.arg("family", family_token(job.key.family));
  scope.arg("d", job.key.d);
  scope.arg("D", job.key.D);
  scope.arg("s", job.s);
  SweepRecord r = run_job_impl(job, limits);
  r.millis = scope.millis();
  em.jobs_completed.add(1);
  return r;
}

SweepRecord SweepRunner::run_job_impl(const SweepJob& job,
                                      const ExecutionLimits& limits) {
  SweepRecord r;
  r.key = job.key;
  r.task = job.task;
  r.s = job.s;
  // The separator-analysis tasks only exist for the paper's seven
  // families; other registry members get a sentinel record — analytic
  // fields forced to -1, which no computed bound can produce — instead of
  // aborting the sweep.
  const bool needs_separator_analysis =
      job.task == Task::kBound || job.task == Task::kDiameterBound ||
      job.task == Task::kSeparatorCheck;
  if (needs_separator_analysis &&
      !topology::family_has_separator_analysis(job.key.family)) {
    r.alpha = r.ell = r.e = r.lambda = -1.0;
    return r;
  }
  // Every task but the asymptotic bound and diameter ones builds the
  // member.  An unbuildable member (odd Knödel n, CCC with D < 3, odd
  // random-regular n*d, ...) yields a sentinel record with n = 0 instead
  // of aborting the sweep; the closed-form order check builds nothing.
  std::int64_t order = 0;
  if (job.task != Task::kBound && job.task != Task::kDiameterBound) {
    try {
      order = topology::family_order(job.key.family, job.key.d, job.key.D);
    } catch (const std::invalid_argument&) {
      return r;
    }
  }
  switch (job.task) {
    case Task::kBound: {
      const auto params = separator::lemma31_params(job.key.family, job.key.d);
      r.alpha = params.alpha;
      r.ell = params.ell;
      const auto sb = core::separator_bound(job.key.family, job.key.d, job.s,
                                            duplex_of(job.key.mode));
      r.e = sb.e;
      r.lambda = sb.lambda;
      break;
    }
    case Task::kDiameterBound: {
      r.e = core::diameter_coefficient(job.key.family, job.key.d);
      break;
    }
    case Task::kSimulate: {
      const auto art = artifacts(job.key, limits.seed);
      r.n = art->compiled.n();
      r.s = art->compiled.period_length();
      simulator::GossipOptions gopts;
      gopts.parallel = limits.simulate_parallel_rounds;
      // One scratch matrix per worker thread for the whole sweep — simulate
      // jobs over a size band stop paying an allocation each.  Results are
      // identical to the per-call gossip_time (same code path underneath).
      thread_local simulator::GossipArena arena;
      r.rounds = simulator::gossip_time(
          art->compiled, limits.simulate_max_rounds, gopts, arena);
      break;
    }
    case Task::kAudit: {
      const auto art = artifacts(job.key, limits.seed);
      r.n = art->compiled.n();
      r.s = art->compiled.period_length();
      const auto audit = core::audit_schedule(art->compiled);
      r.lambda = audit.lambda_star;
      r.e = audit.e_coeff;
      r.rounds = audit.round_lower_bound;
      break;
    }
    case Task::kSeparatorCheck: {
      const auto art = artifacts(job.key, limits.seed);
      r.n = art->graph.vertex_count();
      r.diameter = graph::diameter(art->graph);
      const auto sep =
          separator::build_separator(job.key.family, job.key.d, job.key.D);
      r.alpha = sep.params.alpha;
      r.ell = sep.params.ell;
      const auto chk = separator::verify_separator(art->graph, sep);
      r.sep_distance = chk.min_distance;
      r.sep_min_size =
          static_cast<std::int64_t>(std::min(chk.size1, chk.size2));
      break;
    }
    case Task::kSolveGossip:
    case Task::kSolveBroadcast: {
      // Oversized members (n > 12) yield a sentinel record (rounds/states/
      // group all -1) instead of killing the whole sweep, with no graph or
      // schedule built.
      if (order > search::kMaxVertices) {
        r.n = static_cast<int>(
            std::min<std::int64_t>(order, std::numeric_limits<int>::max()));
        break;
      }
      // Solvable members are tiny (n <= 12): build just the graph, not the
      // artifact bundle — its edge-coloring schedule is never read here.
      const auto g = topology::make_family(job.key.family, job.key.d, job.key.D,
                                           limits.seed);
      r.n = g.vertex_count();
      search::SolveOptions so;
      so.problem = job.task == Task::kSolveGossip
                       ? search::Problem::kGossip
                       : search::Problem::kBroadcast;
      so.mode = job.key.mode;
      so.max_rounds = limits.solve_max_rounds;
      so.max_states = limits.solve_max_states;
      so.threads = limits.solve_threads;
      const auto sr = search::solve(g, so);
      r.rounds = sr.rounds;
      r.states = static_cast<std::int64_t>(sr.states_explored);
      r.group = static_cast<std::int64_t>(sr.group_order);
      r.budget = sr.budget_exhausted ? 1 : 0;
      break;
    }
    case Task::kSynthesize: {
      // Build just the graph: the artifact bundle's edge-coloring schedule
      // would go unused (the synthesizer derives its own warm starts).
      const auto g = topology::make_family(job.key.family, job.key.d,
                                           job.key.D, limits.seed);
      r.n = g.vertex_count();
      synth::SynthOptions so;
      so.mode = job.key.mode;
      so.objective.max_rounds = limits.simulate_max_rounds;
      so.restarts = limits.synth_restarts;
      so.iterations = limits.synth_iterations;
      so.time_budget_ms = limits.synth_time_budget_ms;
      so.threads = limits.synth_threads;
      so.seed = limits.seed;
      const auto sr = synth::synthesize(g, so);
      r.s = sr.schedule.period_length();
      r.rounds = sr.objective.rounds;
      r.objective = sr.objective.score();
      r.restarts = sr.restarts_run;
      r.accepted = sr.moves_accepted;
      break;
    }
  }
  return r;
}

SweepRecord SweepRunner::run_or_fetch(const SweepJob& job,
                                      const ExecutionLimits& limits) {
  if (opts_.store == nullptr) {
    executed_.fetch_add(1, std::memory_order_relaxed);
    return run_job(job, limits);
  }
  const auto key = store::make_store_key(job, limits);
  if (opts_.resume) {
    if (auto hit = opts_.store->lookup(key)) {
      store_hits_.fetch_add(1, std::memory_order_relaxed);
      return *hit;
    }
  }
  SweepRecord r = run_job(job, limits);
  executed_.fetch_add(1, std::memory_order_relaxed);
  if (opts_.store->insert(key, r) == store::InsertOutcome::kConflict)
    store_conflicts_.fetch_add(1, std::memory_order_relaxed);
  return r;
}

SweepRunner::RunStats SweepRunner::run_stats() const {
  return {executed_.load(), store_hits_.load(), store_conflicts_.load()};
}

std::vector<SweepRecord> SweepRunner::run_jobs(const std::vector<SweepJob>& jobs,
                                               const ExecutionLimits& limits) {
  std::vector<SweepRecord> records(jobs.size());
  pool_->run_indexed(jobs.size(), [&](std::size_t i) {
    records[i] = run_or_fetch(jobs[i], limits);
    if (opts_.on_record) opts_.on_record(i, records[i]);
  });
  return records;
}

std::vector<SweepRecord> SweepRunner::run(const ScenarioSpec& spec) {
  return run_jobs(spec.expand(), spec.limits);
}

// ---------------------------------------------------------------- run_cases

std::vector<CaseRecord> run_cases(const std::vector<ScheduleCase>& cases,
                                  const SweepOptions& opts) {
  std::unique_ptr<util::ThreadPool> own;
  std::vector<CaseRecord> records(cases.size());
  util::pool_for(opts.threads, own).run_indexed(cases.size(), [&](std::size_t i) {
    const obs::WallTimer timer;
    const ScheduleCase& c = cases[i];
    CaseRecord& r = records[i];
    r.name = c.name;
    r.n = c.schedule.n;
    r.s = c.schedule.period_length();
    const auto compiled = protocol::CompiledSchedule::compile(c.schedule);
    thread_local simulator::GossipArena arena;
    r.measured = simulator::gossip_time(compiled, c.max_rounds, {}, arena);
    r.audit = core::audit_schedule(compiled);
    r.millis = timer.millis();
  });
  return records;
}

}  // namespace sysgo::engine
