// Parallel scenario-sweep runner.
//
// Executes the jobs of a ScenarioSpec on the persistent thread pool with a
// keyed artifact cache: every task of one (family, d, D, mode) scenario —
// e.g. the upper-bound simulation and the lower-bound audit — shares a
// single build of the member digraph and its edge-coloring schedule.
// Records come back in expansion order regardless of execution
// interleaving, so threaded and serial sweeps produce identical output.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/audit.hpp"
#include "engine/scenario.hpp"
#include "graph/digraph.hpp"
#include "protocol/compiled.hpp"
#include "protocol/systolic.hpp"

namespace sysgo::util {
class ThreadPool;
}

namespace sysgo::store {
class ResultStore;
}

namespace sysgo::engine {

/// Artifacts shared by every task of one scenario key.  The schedule is
/// compiled (and thereby validated against the member digraph) exactly once
/// per scenario; simulate and audit both execute the compiled form.
struct ScenarioArtifacts {
  graph::Digraph graph;
  protocol::CompiledSchedule compiled;  // edge-coloring schedule in key.mode
};

/// Build-once cache of scenario artifacts, safe for concurrent lookups.
/// Concurrent requests for the same key wait on a single build.  The seed
/// is part of the cache key: random-family members differ per seed, and a
/// runner reused across run_jobs calls with different seeds must not serve
/// the first seed's graphs.
class ArtifactCache {
 public:
  using Builder = std::function<std::shared_ptr<const ScenarioArtifacts>()>;

  [[nodiscard]] std::shared_ptr<const ScenarioArtifacts> get_or_build(
      const ScenarioKey& key, std::uint64_t seed, const Builder& build);

  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct Entry;
  struct SeededKey {
    ScenarioKey key;
    std::uint64_t seed = 0;
    friend bool operator==(const SeededKey&, const SeededKey&) = default;
  };
  struct SeededKeyHash {
    [[nodiscard]] std::size_t operator()(const SeededKey& k) const noexcept {
      return ScenarioKeyHash{}(k.key) * 1000003u ^
             static_cast<std::size_t>(k.seed);
    }
  };
  mutable std::mutex mutex_;
  std::unordered_map<SeededKey, std::shared_ptr<Entry>, SeededKeyHash> map_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

struct SweepOptions {
  /// Lanes of the job loop, decoded by util::pool_for: 0 = the
  /// process-wide pool; k >= 1 = a private pool of k - 1 workers plus the
  /// calling thread (1: the job loop runs on the caller; individual jobs
  /// may still use the process-wide pool internally, e.g. diameter BFS).
  unsigned threads = 0;
  /// Persistent result store (not owned; must outlive the runner).  When
  /// set, every finished record is written back under its store key; with
  /// `resume` also set, the store is consulted BEFORE dispatch and hits
  /// are returned verbatim — stored wall-clock included, so a warm re-run
  /// emits byte-identical output without executing a single task.
  store::ResultStore* store = nullptr;
  bool resume = false;
  /// Invoked as each job finishes, possibly from worker threads and out of
  /// order; `index` is the job's position in the deterministic record list.
  /// Store hits fire it too (they are records like any other).
  std::function<void(std::size_t index, const SweepRecord&)> on_record;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions opts = {});
  ~SweepRunner();

  /// Expand and execute the spec.  Records are in expansion order.
  [[nodiscard]] std::vector<SweepRecord> run(const ScenarioSpec& spec);

  /// Execute a pre-expanded job list (records in job order).
  [[nodiscard]] std::vector<SweepRecord> run_jobs(
      const std::vector<SweepJob>& jobs, const ExecutionLimits& limits = {});

  [[nodiscard]] ArtifactCache::Stats cache_stats() const {
    return cache_.stats();
  }

  /// Executed-vs-fetched accounting, accumulated across run/run_jobs calls
  /// (the CI warm-store check asserts executed == 0 on a resumed run).
  struct RunStats {
    std::size_t executed = 0;         // jobs actually computed
    std::size_t store_hits = 0;       // jobs served from the result store
    std::size_t store_conflicts = 0;  // write-backs diverging from the store
  };
  [[nodiscard]] RunStats run_stats() const;

 private:
  /// `seed` feeds random-topology members (deterministic families ignore
  /// it) and is part of the cache key.
  [[nodiscard]] std::shared_ptr<const ScenarioArtifacts> artifacts(
      const ScenarioKey& key, std::uint64_t seed);
  /// run_job_impl computes the record; run_job wraps it in the wall-clock
  /// measurement (SweepRecord::millis) and the obs accounting (per-task
  /// latency histogram, jobs in-flight/completed).
  [[nodiscard]] SweepRecord run_job(const SweepJob& job,
                                    const ExecutionLimits& limits);
  [[nodiscard]] SweepRecord run_job_impl(const SweepJob& job,
                                         const ExecutionLimits& limits);
  /// run_job behind the result store: consult on resume, write back after
  /// execution.
  [[nodiscard]] SweepRecord run_or_fetch(const SweepJob& job,
                                         const ExecutionLimits& limits);

  SweepOptions opts_;
  ArtifactCache cache_;
  std::unique_ptr<util::ThreadPool> own_pool_;  // threads >= 1
  util::ThreadPool* pool_;                      // own_pool_ or instance()
  std::atomic<std::size_t> executed_{0};
  std::atomic<std::size_t> store_hits_{0};
  std::atomic<std::size_t> store_conflicts_{0};
};

/// A named concrete schedule to validate (measured time + certified audit);
/// the corpus form used by the validation harness.
struct ScheduleCase {
  std::string name;
  protocol::SystolicSchedule schedule;
  int max_rounds = 1 << 20;
};

struct CaseRecord {
  std::string name;
  int n = 0;
  int s = 0;  // schedule period
  int measured = -1;  // gossip time; -1 when incomplete within max_rounds
  core::AuditResult audit{};
  double millis = 0.0;
};

/// Run every case (simulate + audit) on the pool; records in corpus order.
[[nodiscard]] std::vector<CaseRecord> run_cases(
    const std::vector<ScheduleCase>& cases, const SweepOptions& opts = {});

}  // namespace sysgo::engine
