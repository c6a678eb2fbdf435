#include "engine/sweep.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "core/separator_bound.hpp"
#include "graph/search.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "obs/trace.hpp"
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

/// Engine observability (catalog in README "Observability").  Job latency
/// is recorded per task kind — the handles live in a Task-indexed array so
/// run_job pays one relaxed atomic, not a name lookup, per job.
struct EngineMetrics {
  obs::Counter& jobs_completed = obs::counter("engine.jobs_completed");
  obs::Gauge& jobs_inflight = obs::gauge("engine.jobs_inflight");
  obs::Gauge& inflight_highwater =
      obs::gauge("engine.jobs_inflight_highwater");
  obs::Counter& cache_hits = obs::counter("engine.cache.hits");
  obs::Counter& cache_misses = obs::counter("engine.cache.misses");
  std::array<obs::Histogram*, 8> task_micros{};
  // Per-task perf rollups (--perf): cycles/IPC/cache behavior next to the
  // latency histograms, under the same engine.task.<name> prefix.
  std::array<obs::perf::PerfRollup*, 8> task_perf{};

  EngineMetrics() {
    for (const Task t :
         {Task::kBound, Task::kDiameterBound, Task::kSimulate, Task::kAudit,
          Task::kSeparatorCheck, Task::kSolveGossip, Task::kSolveBroadcast,
          Task::kSynthesize}) {
      task_micros[static_cast<std::size_t>(t)] =
          &obs::histogram("engine.task." + task_name(t) + ".micros");
      // Leaked like every registry handle: rollups live for the process.
      task_perf[static_cast<std::size_t>(t)] =
          new obs::perf::PerfRollup("engine.task." + task_name(t));
    }
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

/// Run body(i) for i in [0, count) honoring the options' threading choice:
/// serial, the process-wide pool, or a private pool of `threads` lanes.
void run_indexed_with_options(const SweepOptions& opts,
                              util::ThreadPool* own_pool, std::size_t count,
                              const std::function<void(std::size_t)>& body) {
  if (opts.threads == 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  util::ThreadPool& pool =
      own_pool != nullptr ? *own_pool : util::ThreadPool::instance();
  pool.run_indexed(count, body);
}

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

SweepRunner::SweepRunner(SweepOptions opts) : opts_(std::move(opts)) {
  if (opts_.threads > 1)
    own_pool_ = std::make_unique<util::ThreadPool>(opts_.threads - 1);
}

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
  if (!opts_.use_cache) return build();
  return cache_.get_or_build(key, seed, build);
}

SweepRecord SweepRunner::run_job(const SweepJob& job,
                                 const ExecutionLimits& limits) {
  const InflightGuard inflight;
  // One span per job, named by task so `sysgo trace report` breaks stages
  // down per task kind.  All naming/interning work sits behind armed().
  obs::trace::TraceSpan span(
      obs::trace::enabled()
          ? obs::trace::intern("engine.task." + task_name(job.task))
          : 0);
  if (span.armed()) {
    span.str_arg(obs::trace::intern("family"),
                 obs::trace::intern(family_token(job.key.family)));
    span.arg(obs::trace::intern("d"), job.key.d);
    span.arg(obs::trace::intern("D"), job.key.D);
    span.arg(obs::trace::intern("s"), job.s);
  }
  // After the span so the perf delta lands in the span's args before the
  // span closes (destruction runs in reverse order).
  obs::perf::PerfScope perf_scope(
      *engine_metrics().task_perf[static_cast<std::size_t>(job.task)]);
  if (perf_scope.armed()) perf_scope.attach(&span);
  const obs::WallTimer timer;
  SweepRecord r = run_job_impl(job, limits);
  r.millis = timer.millis();
  auto& em = engine_metrics();
  em.task_micros[static_cast<std::size_t>(job.task)]->record_micros(
      timer.micros());
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
      // Oversized or invalid grid members (n > 12, odd Knödel n, CCC with
      // D < 3, ...) yield a sentinel record (rounds/states/group all -1)
      // instead of killing the whole sweep.  The closed-form order check
      // keeps sentinels O(1) — no graph or schedule is ever built for
      // members the solver cannot take.
      std::int64_t order;
      try {
        order = topology::family_order(job.key.family, job.key.d, job.key.D);
      } catch (const std::invalid_argument&) {
        break;  // unbuildable member: sentinel with n = 0
      }
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
      // Unbuildable members (odd random-regular n*d, out-of-cap D, ...)
      // yield a sentinel record (n = 0, rounds = -1) like the solve tasks
      // instead of aborting the sweep.
      try {
        (void)topology::family_order(job.key.family, job.key.d, job.key.D);
      } catch (const std::invalid_argument&) {
        break;
      }
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
  run_indexed_with_options(opts_, own_pool_.get(), jobs.size(),
                           [&](std::size_t i) {
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
  std::unique_ptr<util::ThreadPool> own_pool;
  if (opts.threads > 1)
    own_pool = std::make_unique<util::ThreadPool>(opts.threads - 1);
  std::vector<CaseRecord> records(cases.size());
  run_indexed_with_options(opts, own_pool.get(), cases.size(),
                           [&](std::size_t i) {
                             const obs::WallTimer timer;
                             const ScheduleCase& c = cases[i];
                             CaseRecord& r = records[i];
                             r.name = c.name;
                             r.n = c.schedule.n;
                             r.s = c.schedule.period_length();
                             const auto compiled =
                                 protocol::CompiledSchedule::compile(c.schedule);
                             thread_local simulator::GossipArena arena;
                             r.measured = simulator::gossip_time(
                                 compiled, c.max_rounds, {}, arena);
                             r.audit = core::audit_schedule(compiled);
                             r.millis = timer.millis();
                           });
  return records;
}

}  // namespace sysgo::engine
