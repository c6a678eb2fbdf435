#include "util/thread_pool.hpp"

#include <chrono>
#include <exception>
#include <memory>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "obs/wall_timer.hpp"
#include "util/parallel.hpp"

namespace sysgo::util {

namespace {

/// Pool observability (metric catalog in README "Observability").  The
/// handles are resolved once; steady-state cost per event is one relaxed
/// sharded atomic.  tasks_* count pool closures (a parallel region submits
/// helpers, not indices), and each executed closure runs in a `pool.task`
/// scope; idle time is accumulated around the workers' cv waits, where it
/// is free.
struct PoolMetrics {
  obs::ScopeSite task{"pool.task"};
  obs::Counter& submitted = obs::counter("pool.tasks_submitted");
  obs::Counter& executed = obs::counter("pool.tasks_executed");
  obs::Counter& stolen = obs::counter("pool.tasks_stolen");
  obs::Counter& idle_micros = obs::counter("pool.worker_idle_micros");
  obs::Gauge& queue_highwater = obs::gauge("pool.queue_depth_highwater");
};

PoolMetrics& pool_metrics() {
  static PoolMetrics m;
  return m;
}

/// Eager registration: any binary linking this TU (everything that touches
/// the pool) exposes the full pool catalog in `sysgo metrics dump` and in
/// --metrics snapshots even before the first task runs.
[[maybe_unused]] const bool kPoolMetricsRegistered = (pool_metrics(), true);

/// Flow arrows pair a kFlowBegin on the submitting lane with a kFlowEnd on
/// the executing worker's lane, both named "pool.submit".
obs::trace::NameId submit_flow_name() {
  static const obs::trace::NameId name = obs::trace::intern("pool.submit");
  return name;
}

/// Run one pool closure in its `pool.task` scope.
void execute(const std::function<void()>& task) {
  {
    const obs::Scope scope(pool_metrics().task);
    task();
  }
  pool_metrics().executed.add(1);
}

}  // namespace

ThreadPool::ThreadPool(unsigned workers) {
  if (workers == kDefaultWorkers) {
    const unsigned hw = hardware_threads();
    workers = hw > 1 ? hw - 1 : 0;  // the caller is the remaining lane
  }
  // Pool index for trace lane names: "pool<P>.worker<W>".  In practice P is
  // almost always 0 (the process-wide instance()), but tests build private
  // pools and their lanes should stay distinguishable in a trace.
  static std::atomic<unsigned> next_pool_id{0};
  const unsigned pool_id = next_pool_id.fetch_add(1, std::memory_order_relaxed);
  queues_.reserve(workers);
  for (unsigned w = 0; w < workers; ++w)
    queues_.push_back(std::make_unique<WorkerQueue>());
  threads_.reserve(workers);
  try {
    for (unsigned w = 0; w < workers; ++w)
      threads_.emplace_back([this, w, pool_id] {
        obs::trace::set_this_lane_name("pool" + std::to_string(pool_id) +
                                       ".worker" + std::to_string(w));
        worker_loop(w);
      });
  } catch (...) {
    // Thread creation failed partway (resource exhaustion): shut down the
    // workers already running before the members unwind, else their
    // joinable std::threads would terminate the process.
    stop_.store(true, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(sleep_mutex_);
      sleep_cv_.notify_all();
    }
    for (auto& t : threads_) t.join();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    sleep_cv_.notify_all();
  }
  for (auto& t : threads_) t.join();
}

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::submit(std::function<void()> task) {
  if (obs::trace::enabled()) {
    // Arrow tail on the submitting lane now; the wrapper emits the head on
    // whichever lane executes it.  The extra std::function hop exists only
    // while tracing is on.
    const obs::trace::NameId name = submit_flow_name();
    const std::uint32_t flow = obs::trace::next_flow_id();
    obs::trace::flow_begin(name, flow);
    task = [inner = std::move(task), name, flow] {
      obs::trace::flow_end(name, flow);
      inner();
    };
  }
  if (queues_.empty()) {  // no workers: run inline
    pool_metrics().submitted.add(1);
    execute(task);
    return;
  }
  const std::size_t q =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  {
    std::lock_guard<std::mutex> lock(queues_[q]->mutex);
    queues_[q]->tasks.push_back(std::move(task));
  }
  const std::size_t depth =
      pending_.fetch_add(1, std::memory_order_release) + 1;
  pool_metrics().submitted.add(1);
  pool_metrics().queue_highwater.record_max(static_cast<std::int64_t>(depth));
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    sleep_cv_.notify_one();
  }
}

bool ThreadPool::try_run_one(std::size_t home) {
  std::function<void()> task;
  const std::size_t n = queues_.size();
  bool stolen = false;
  // Own queue back (LIFO), then steal from the others front (FIFO).
  for (std::size_t k = 0; k < n && !task; ++k) {
    const std::size_t q = (home + k) % n;
    std::lock_guard<std::mutex> lock(queues_[q]->mutex);
    if (queues_[q]->tasks.empty()) continue;
    if (k == 0) {
      task = std::move(queues_[q]->tasks.back());
      queues_[q]->tasks.pop_back();
    } else {
      task = std::move(queues_[q]->tasks.front());
      queues_[q]->tasks.pop_front();
      stolen = true;
    }
  }
  if (!task) return false;
  pending_.fetch_sub(1, std::memory_order_acq_rel);
  if (stolen) pool_metrics().stolen.add(1);
  execute(task);
  return true;
}

void ThreadPool::worker_loop(std::size_t self) {
  for (;;) {
    if (try_run_one(self)) continue;
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    const obs::WallTimer idle;
    sleep_cv_.wait(lock, [this] {
      return pending_.load(std::memory_order_acquire) > 0 ||
             stop_.load(std::memory_order_acquire);
    });
    pool_metrics().idle_micros.add(idle.micros());
    if (stop_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0)
      return;
  }
}

namespace {

/// Shared state of one cooperative parallel region.
struct Region {
  explicit Region(std::size_t c, std::function<void(std::size_t)> b)
      : count(c), body(std::move(b)) {}
  const std::size_t count;
  const std::function<void(std::size_t)> body;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex error_mutex;
  std::exception_ptr error;

  void drain() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
      done.fetch_add(1, std::memory_order_acq_rel);
    }
  }
};

}  // namespace

void ThreadPool::run_indexed(std::size_t count,
                             const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  if (queues_.empty() || count == 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  auto region = std::make_shared<Region>(count, body);
  const std::size_t helpers =
      std::min<std::size_t>(worker_count(), count - 1);
  for (std::size_t h = 0; h < helpers; ++h)
    submit([region] { region->drain(); });
  region->drain();  // the caller claims indices too: progress is guaranteed
  // Indices claimed by workers may still be running; help with other queued
  // work (e.g. nested-region helpers), then back off to a short sleep so a
  // long-tail job doesn't pin this core.
  unsigned idle = 0;
  while (region->done.load(std::memory_order_acquire) < count) {
    if (try_run_one(0)) {
      idle = 0;
    } else if (++idle < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  if (region->error) std::rethrow_exception(region->error);
}

}  // namespace sysgo::util
