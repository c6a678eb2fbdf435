#include "graph/search.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace sysgo::graph {
namespace {

// BFS into a caller-provided frontier/dist buffer; returns #reached.
int bfs_into(const Digraph& g, const std::vector<int>& sources,
             std::vector<int>& dist, std::vector<int>& queue) {
  std::fill(dist.begin(), dist.end(), kUnreachable);
  queue.clear();
  for (int s : sources) {
    if (s < 0 || s >= g.vertex_count())
      throw std::out_of_range("bfs: source out of range");
    if (dist[s] != 0) {
      dist[s] = 0;
      queue.push_back(s);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const int u = queue[head];
    const int du = dist[u];
    for (int v : g.out_neighbors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = du + 1;
        queue.push_back(v);
      }
    }
  }
  return static_cast<int>(queue.size());
}

}  // namespace

std::vector<int> bfs_distances(const Digraph& g, int src) {
  std::vector<int> dist(static_cast<std::size_t>(g.vertex_count()));
  std::vector<int> queue;
  queue.reserve(dist.size());
  bfs_into(g, {src}, dist, queue);
  return dist;
}

std::vector<int> multi_source_bfs(const Digraph& g, const std::vector<int>& sources) {
  std::vector<int> dist(static_cast<std::size_t>(g.vertex_count()));
  std::vector<int> queue;
  queue.reserve(dist.size());
  bfs_into(g, sources, dist, queue);
  return dist;
}

int distance(const Digraph& g, int u, int v) { return bfs_distances(g, u)[v]; }

int diameter(const Digraph& g) {
  const int n = g.vertex_count();
  if (n == 0) return 0;
  std::atomic<int> worst{0};
  std::atomic<bool> disconnected{false};
  util::ThreadPool::instance().run_blocks(
      static_cast<std::size_t>(n),
      [&](std::size_t lo, std::size_t hi) {
        std::vector<int> dist(static_cast<std::size_t>(n));
        std::vector<int> queue;
        queue.reserve(dist.size());
        int local = 0;
        for (std::size_t s = lo; s < hi && !disconnected.load(); ++s) {
          const int reached = bfs_into(g, {static_cast<int>(s)}, dist, queue);
          if (reached < n) {
            disconnected = true;
            return;
          }
          local = std::max(local, *std::max_element(dist.begin(), dist.end()));
        }
        int cur = worst.load();
        while (local > cur && !worst.compare_exchange_weak(cur, local)) {
        }
      },
      64);
  if (disconnected) return kUnreachable;
  return worst.load();
}

bool is_strongly_connected(const Digraph& g) {
  const int n = g.vertex_count();
  if (n == 0) return true;
  std::vector<int> dist(static_cast<std::size_t>(n));
  std::vector<int> queue;
  queue.reserve(dist.size());
  if (bfs_into(g, {0}, dist, queue) < n) return false;
  const Digraph rev = g.reverse();
  if (bfs_into(rev, {0}, dist, queue) < n) return false;
  return true;
}

}  // namespace sysgo::graph
