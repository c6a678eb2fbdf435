#include "topology/classic.hpp"

#include <stdexcept>

#include "topology/words.hpp"

namespace sysgo::topology {

graph::Digraph path(int n) {
  if (n < 1) throw std::invalid_argument("path: need n >= 1");
  graph::Digraph g(n);
  for (int i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  g.finalize();
  return g;
}

graph::Digraph cycle(int n) {
  if (n < 3) throw std::invalid_argument("cycle: need n >= 3");
  graph::Digraph g(n);
  for (int i = 0; i < n; ++i) g.add_edge(i, (i + 1) % n);
  g.finalize();
  return g;
}

graph::Digraph grid(int rows, int cols) {
  if (rows < 1 || cols < 1) throw std::invalid_argument("grid: need rows, cols >= 1");
  graph::Digraph g(rows * cols);
  auto id = [cols](int r, int c) { return r * cols + c; };
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) g.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) g.add_edge(id(r, c), id(r + 1, c));
    }
  g.finalize();
  return g;
}

graph::Digraph torus(int rows, int cols) {
  if (rows < 3 || cols < 3) throw std::invalid_argument("torus: need rows, cols >= 3");
  graph::Digraph g(rows * cols);
  auto id = [cols](int r, int c) { return r * cols + c; };
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c) {
      g.add_edge(id(r, c), id(r, (c + 1) % cols));
      g.add_edge(id(r, c), id((r + 1) % rows, c));
    }
  g.finalize();
  return g;
}

graph::Digraph complete(int n) {
  if (n < 2) throw std::invalid_argument("complete: need n >= 2");
  if (n > kMaxCompleteOrder) throw std::invalid_argument("complete: too large");
  graph::Digraph g(n);
  for (int u = 0; u < n; ++u)
    for (int v = u + 1; v < n; ++v) g.add_edge(u, v);
  g.finalize();
  return g;
}

graph::Digraph hypercube(int D) {
  if (D < 1 || D > 24) throw std::invalid_argument("hypercube: need 1 <= D <= 24");
  const int n = 1 << D;
  graph::Digraph g(n);
  for (int v = 0; v < n; ++v)
    for (int b = 0; b < D; ++b)
      if ((v ^ (1 << b)) > v) g.add_edge(v, v ^ (1 << b));
  g.finalize();
  return g;
}

graph::Digraph complete_tree(int d, int height) {
  if (d < 2 || height < 0) throw std::invalid_argument("complete_tree: need d >= 2");
  // n = (d^{height+1} - 1) / (d - 1)
  const std::int64_t n64 = (ipow(d, height + 1) - 1) / (d - 1);
  if (n64 > (1 << 24)) throw std::invalid_argument("complete_tree: too large");
  const int n = static_cast<int>(n64);
  graph::Digraph g(n);
  for (int v = 0; v < n; ++v)
    for (int c = 1; c <= d; ++c) {
      const std::int64_t child = static_cast<std::int64_t>(d) * v + c;
      if (child < n) g.add_edge(v, static_cast<int>(child));
    }
  g.finalize();
  return g;
}

}  // namespace sysgo::topology
