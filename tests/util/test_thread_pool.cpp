#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace sysgo::util {
namespace {

TEST(ThreadPool, InstanceIsPersistent) {
  ThreadPool& a = ThreadPool::instance();
  ThreadPool& b = ThreadPool::instance();
  EXPECT_EQ(&a, &b);
}

TEST(ThreadPool, RunIndexedCoversEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(10'000);
  pool.run_indexed(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, RunIndexedZeroWorkersRunsSerially) {
  ThreadPool pool(0u);
  EXPECT_EQ(pool.worker_count(), 0u);
  std::vector<int> hits(500, 0);
  pool.run_indexed(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, RunIndexedEmptyDoesNothing) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.run_indexed(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, NestedRegionsComplete) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.run_indexed(8, [&](std::size_t) {
    pool.run_indexed(16, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPool, WaitingCallerHelpsANestedRegion) {
  // The caller's index 0 holds until the worker has taken index 1, which
  // opens a nested region whose indices wait (up to 5 s) for the caller.
  // The caller has nothing left of its own region, so while it waits for
  // the worker it joins the nested region and runs some of its indices.
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> started{false};
  std::atomic<bool> helped{false};
  pool.run_indexed(2, [&](std::size_t i) {
    if (i == 0) {
      while (!started.load()) std::this_thread::yield();
      return;
    }
    started = true;
    pool.run_indexed(64, [&](std::size_t) {
      if (std::this_thread::get_id() == caller) {
        helped = true;
        return;
      }
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (!helped.load() && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
  });
  EXPECT_TRUE(helped.load());
}

TEST(ThreadPool, WaitingCallerNeverJoinsTheRegionItIsInside) {
  // The worker is held in a region of another thread (which itself stays
  // inside its index 0 throughout) while the caller opens `outer` and,
  // inside outer's index 0, `inner`.  Released, the worker joins inner (the
  // newest) and holds its index 1 for up to 200 ms.  The caller, done with
  // inner's index 0, waits for it with outer's index 1 still unclaimed: it
  // must not run that index on top of its suspended index 0.
  ThreadPool pool(1);
  const auto holds = [](const std::atomic<bool>& flag, int millis) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(millis);
    while (!flag.load() && std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
  };
  std::atomic<bool> worker_held{false}, release{false}, inner_taken{false},
      reentered{false}, finished{false};
  std::thread other([&] {
    pool.run_indexed(2, [&](std::size_t i) {
      if (i == 0) return holds(finished, 5000);
      worker_held = true;
      holds(release, 5000);
    });
  });
  holds(worker_held, 5000);
  ASSERT_TRUE(worker_held.load());
  static thread_local int depth = 0;
  pool.run_indexed(2, [&](std::size_t i) {
    if (++depth > 1) reentered = true;
    if (i == 0) {
      pool.run_indexed(2, [&](std::size_t j) {
        if (j == 1) {
          inner_taken = true;
          holds(reentered, 200);
          return;
        }
        release = true;
        holds(inner_taken, 5000);
      });
    }
    --depth;
  });
  finished = true;
  other.join();
  EXPECT_TRUE(inner_taken.load());
  EXPECT_FALSE(reentered.load());
}

TEST(ThreadPool, ExceptionsPropagateToCaller) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.run_indexed(100,
                       [&](std::size_t i) {
                         if (i == 17) throw std::runtime_error("boom");
                         ++completed;
                       }),
      std::runtime_error);
  EXPECT_EQ(completed.load(), 99);  // the region still ran to completion
}

TEST(ThreadPool, NoPoolWorkOutlivesItsRegion) {
  // A region returns only after every worker that joined it has left, and
  // a worker's pool.task scope closes before it leaves: nothing pool-side
  // may record after run_indexed has returned.
  ThreadPool pool(3);
  const obs::Histogram& tasks = obs::histogram("pool.task.micros");
  int late = 0;
  for (int k = 0; k < 50; ++k) {
    pool.run_indexed(4, [](std::size_t) {});
    const std::uint64_t at_return = tasks.aggregate().count;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    if (tasks.aggregate().count != at_return) ++late;
  }
  EXPECT_EQ(late, 0);
}

TEST(ThreadPool, WorkersRunIndicesOfALongRegion) {
  // Indices long enough for the workers to wake and join: their stays are
  // pool.task samples, all recorded by the time the region returns.
  ThreadPool pool(3);
  const obs::Histogram& tasks = obs::histogram("pool.task.micros");
  const std::uint64_t before = tasks.aggregate().count;
  std::mutex m;
  std::set<std::thread::id> lanes;
  pool.run_indexed(64, [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::lock_guard<std::mutex> lock(m);
    lanes.insert(std::this_thread::get_id());
  });
  EXPECT_GT(lanes.size(), 1u);
  // One sample per helper stay: at least one per lane but the caller's.
  EXPECT_GE(tasks.aggregate().count - before, lanes.size() - 1);
}

TEST(ThreadPool, RunBlocksEmptyRangeDoesNothing) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.run_blocks(0, [&](std::size_t, std::size_t) { ++calls; }, 1);
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, RunBlocksCoversRangeWithoutOverlap) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(5000);
  std::atomic<int> blocks{0};
  pool.run_blocks(
      hits.size(),
      [&](std::size_t lo, std::size_t hi) {
        ASSERT_LT(lo, hi);
        ++blocks;
        for (std::size_t i = lo; i < hi; ++i) ++hits[i];
      },
      /*min_grain=*/8);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_LE(blocks.load(), 4);  // at most one block per lane
}

TEST(ThreadPool, RunBlocksBelowTheGrainIsOneBlock) {
  ThreadPool pool(3);
  std::vector<std::pair<std::size_t, std::size_t>> seen;
  pool.run_blocks(
      100, [&](std::size_t lo, std::size_t hi) { seen.emplace_back(lo, hi); },
      /*min_grain=*/1000);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], std::make_pair(std::size_t{0}, std::size_t{100}));
  // Without workers every range is one block, whatever the grain.
  ThreadPool serial(0u);
  seen.clear();
  serial.run_blocks(
      100, [&](std::size_t lo, std::size_t hi) { seen.emplace_back(lo, hi); },
      /*min_grain=*/1);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], std::make_pair(std::size_t{0}, std::size_t{100}));
}

TEST(ThreadPool, PoolForDecodesAThreadsSetting) {
  std::unique_ptr<ThreadPool> own;
  EXPECT_EQ(&pool_for(0, own), &ThreadPool::instance());
  EXPECT_EQ(own, nullptr);
  EXPECT_EQ(pool_for(1, own).worker_count(), 0u);  // serial on the caller
  ASSERT_NE(own, nullptr);
  ThreadPool& four = pool_for(4, own);
  EXPECT_EQ(&four, own.get());
  EXPECT_EQ(four.worker_count(), 3u);  // plus the caller: four lanes
}

}  // namespace
}  // namespace sysgo::util
