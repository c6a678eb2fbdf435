// Persistent thread pool whose one operation is a cooperative parallel
// region.
//
// run_indexed(count, body) publishes a region; the calling thread and any
// idle worker claim indices from the region's one shared counter.  Workers
// sleep on one condition variable, join any open region that still has
// unclaimed indices, and leave it when its indices run out.  The caller
// runs index 0 and claims further indices too, so a region always makes
// progress (regions nest: a worker that opens one inside an index drains
// it itself in the worst case, and a single hardware thread never
// deadlocks).  While its last indices run on workers, the caller helps the
// regions nested inside its own, which the workers opened in its indices;
// it never joins an enclosing or unrelated region, since it is suspended
// inside an index and another index run on top of that one would share
// its thread_local state.
//
// The region contract: run_indexed returns only when every index has run
// AND every worker that joined the region has left it.  No pool work
// outlives its region, so once a region returns its `pool.task` scopes have
// closed — a trace or metrics snapshot written afterwards holds all of them.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace sysgo::util {

class ThreadPool {
 public:
  /// Default worker count: hardware threads - 1 (the calling thread
  /// participates in parallel regions, so n workers + caller saturate
  /// n + 1 cores).
  static constexpr unsigned kDefaultWorkers = ~0u;

  /// Start `workers` threads; 0 is a valid serial pool (run_indexed loops
  /// on the caller).
  explicit ThreadPool(unsigned workers = kDefaultWorkers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker thread count (may be 0 on single-core machines; parallel
  /// regions then run entirely on the caller).
  [[nodiscard]] unsigned worker_count() const noexcept {
    return static_cast<unsigned>(threads_.size());
  }

  /// Process-wide pool, created on first use and kept for the process
  /// lifetime.
  static ThreadPool& instance();

  /// Run body(i) for every i in [0, count) as one region (see the file
  /// comment); returns when all indices have run and every joined worker
  /// has left.  Exceptions from body propagate to the caller (first one
  /// wins).  With workers the region still runs every other index; a pool
  /// without workers loops on the caller and stops at the first throw.
  void run_indexed(std::size_t count,
                   const std::function<void(std::size_t)>& body);

  /// Block form: body(lo, hi) over contiguous blocks that partition
  /// [0, count) — at most one per lane, and at most ceil(count / min_grain)
  /// of them, so one block (a direct call) when count <= min_grain or the
  /// pool has no workers.  Preferred for tight numeric kernels: one
  /// std::function call per block, cache-friendly order inside it.
  void run_blocks(std::size_t count,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  std::size_t min_grain = 1024);

 private:
  struct Region;

  void worker_loop();
  /// Stop and join every worker (no region may be open).
  void join_workers() noexcept;
  /// The newest open region with unclaimed indices, or null (mutex_ held);
  /// with `within`, only a region nested inside that one.
  Region* claimable(const Region* within = nullptr) const;
  /// Join `r` as a helper (mutex_ held on entry and exit): claim and run
  /// its indices in one `pool.task` scope, then leave it.
  void help(Region& r, std::unique_lock<std::mutex>& lock);

  std::mutex mutex_;  // guards open_, stop_ and every open region's helpers
  std::condition_variable work_;  // workers: a region opened, or stop
  std::condition_variable left_;  // callers: a helper left, or a region opened
  std::vector<Region*> open_;     // regions published and not yet drained
  bool stop_ = false;
  std::vector<std::thread> threads_;
  /// The region whose index this thread is running, of any pool: the
  /// parent of a region opened now.
  static thread_local Region* running_;
};

/// The pool a `threads` setting names — the one decoding of the engine,
/// search and synth `threads` fields: 0 selects the process-wide
/// instance(); k >= 1 a private pool of k - 1 workers plus the caller,
/// created into `own` (k = 1 has no workers, so its regions run serially
/// on the caller).
[[nodiscard]] ThreadPool& pool_for(unsigned threads,
                                   std::unique_ptr<ThreadPool>& own);

}  // namespace sysgo::util
