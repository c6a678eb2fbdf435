#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "obs/wall_timer.hpp"

namespace sysgo::util {

namespace {

/// Pool observability (metric catalog in README "Observability").  The
/// handles are resolved once.  Each stay of a thread in a region it did not
/// open — a worker's, or a waiting caller's that helps — runs in one
/// `pool.task` scope; idle time is accumulated around the workers' cv
/// waits, where it is free.
struct PoolMetrics {
  obs::ScopeSite task{"pool.task"};
  obs::Counter& idle_micros = obs::counter("pool.worker_idle_micros");
};

PoolMetrics& pool_metrics() {
  static PoolMetrics m;
  return m;
}

/// Eager registration: any binary linking this TU (everything that touches
/// the pool) exposes the full pool catalog in `sysgo metrics dump` and in
/// --metrics snapshots even before the first region runs.
[[maybe_unused]] const bool kPoolMetricsRegistered = (pool_metrics(), true);

}  // namespace

/// Shared state of one region.  It lives on the opening caller's stack:
/// the caller returns only after every helper has left, so every region
/// outlives the regions nested inside its indices.
struct ThreadPool::Region {
  Region(std::size_t c, const std::function<void(std::size_t)>& b)
      : count(c), body(b), parent(running_) {}
  const std::size_t count;
  const std::function<void(std::size_t)>& body;
  Region* const parent;  // the region whose index opened this one, or null
  std::atomic<std::size_t> next{1};  // the one shared index counter; 0 is
                                     // the caller's, so it always runs one
  std::size_t helpers = 0;           // threads inside but the caller; mutex_
  std::mutex error_mutex;
  std::exception_ptr error;

  [[nodiscard]] std::size_t claim() noexcept {
    return next.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] bool claimable() const noexcept {
    return next.load(std::memory_order_relaxed) < count;
  }
  /// Whether this region was opened, at any depth, inside an index of `r`.
  [[nodiscard]] bool nested_in(const Region* r) const noexcept {
    for (const Region* p = parent; p != nullptr; p = p->parent)
      if (p == r) return true;
    return false;
  }

  /// Run index `i`, then every further index this thread claims.
  void run_from(std::size_t i) {
    Region* const outer = std::exchange(running_, this);
    for (; i < count; i = claim()) {
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    }
    running_ = outer;
  }
};

thread_local ThreadPool::Region* ThreadPool::running_ = nullptr;

ThreadPool::ThreadPool(unsigned workers) {
  if (workers == kDefaultWorkers) {
    const unsigned hw = std::thread::hardware_concurrency();
    workers = hw > 1 ? hw - 1 : 0;  // the caller is the remaining lane
  }
  if (workers == 0) return;
  // Pool index for trace lane names: "pool<P>.worker<W>".  In practice P is
  // almost always 0 (the process-wide instance()), but private pools get
  // their own index so their lanes stay distinguishable in a trace.
  static std::atomic<unsigned> next_pool_id{0};
  const unsigned pool_id = next_pool_id.fetch_add(1, std::memory_order_relaxed);
  threads_.reserve(workers);
  try {
    for (unsigned w = 0; w < workers; ++w)
      threads_.emplace_back([this, w, pool_id] {
        obs::trace::set_this_lane_name("pool" + std::to_string(pool_id) +
                                       ".worker" + std::to_string(w));
        worker_loop();
      });
  } catch (...) {
    // Thread creation failed partway (resource exhaustion): shut down the
    // workers already running before the members unwind, else their
    // joinable std::threads would terminate the process.
    join_workers();
    throw;
  }
}

ThreadPool::~ThreadPool() { join_workers(); }

void ThreadPool::join_workers() noexcept {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_.notify_all();
  for (auto& t : threads_) t.join();
}

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::Region* ThreadPool::claimable(const Region* within) const {
  // Newest first: a nested region blocks the index that opened it.
  for (auto it = open_.rbegin(); it != open_.rend(); ++it)
    if ((*it)->claimable() && (within == nullptr || (*it)->nested_in(within)))
      return *it;
  return nullptr;
}

void ThreadPool::help(Region& r, std::unique_lock<std::mutex>& lock) {
  ++r.helpers;
  lock.unlock();
  if (const std::size_t i = r.claim(); i < r.count) {
    const obs::Scope scope(pool_metrics().task);
    r.run_from(i);
  }
  lock.lock();
  if (--r.helpers == 0) left_.notify_all();
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (Region* r = claimable()) {
      help(*r, lock);
      continue;
    }
    if (stop_) return;
    const obs::WallTimer idle;
    work_.wait(lock);
    pool_metrics().idle_micros.add(idle.micros());
  }
}

void ThreadPool::run_indexed(std::size_t count,
                             const std::function<void(std::size_t)>& body) {
  if (threads_.empty() || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  Region region(count, body);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    open_.push_back(&region);
  }
  // One worker per index beyond the caller's first, and every caller
  // waiting on its own region (it may help here).
  const std::size_t wake = std::min<std::size_t>(threads_.size(), count - 1);
  for (std::size_t k = 0; k < wake; ++k) work_.notify_one();
  left_.notify_all();
  region.run_from(0);

  std::unique_lock<std::mutex> lock(mutex_);
  std::erase(open_, &region);  // every index is claimed: nobody joins now
  // Help only regions nested inside this one.  This thread is suspended in
  // whatever index opened `region`; an index of an enclosing or unrelated
  // region run on top of it could clobber that index's thread_local state
  // (a sweep job's simulation arena) and would stack one job per level.
  while (region.helpers > 0) {
    if (Region* nested = claimable(&region))
      help(*nested, lock);
    else
      left_.wait(lock);
  }
  lock.unlock();
  if (region.error) std::rethrow_exception(region.error);
}

void ThreadPool::run_blocks(
    std::size_t count, const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t min_grain) {
  if (count == 0) return;
  const std::size_t grain = std::max<std::size_t>(min_grain, 1);
  const std::size_t blocks =
      std::min<std::size_t>(threads_.size() + 1, (count + grain - 1) / grain);
  if (blocks <= 1) {
    body(0, count);
    return;
  }
  const std::size_t chunk = (count + blocks - 1) / blocks;
  run_indexed(blocks, [&](std::size_t b) {
    const std::size_t lo = b * chunk;
    const std::size_t hi = std::min(count, lo + chunk);
    if (lo < hi) body(lo, hi);
  });
}

ThreadPool& pool_for(unsigned threads, std::unique_ptr<ThreadPool>& own) {
  if (threads == 0) return ThreadPool::instance();
  own = std::make_unique<ThreadPool>(threads - 1);
  return *own;
}

}  // namespace sysgo::util
