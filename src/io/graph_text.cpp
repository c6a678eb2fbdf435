#include "io/graph_text.hpp"

#include <sstream>
#include <stdexcept>
#include <vector>

#include "io/text_limits.hpp"
#include "util/parse.hpp"

namespace sysgo::io {
namespace {

// "graph_text: line <k>" — the prefix of every parse error.
std::string at_line(int line_no) {
  return "graph_text: line " + std::to_string(line_no);
}

[[noreturn]] void fail(int line_no, const std::string& what) {
  throw std::invalid_argument(at_line(line_no) + ": " + what);
}

std::vector<std::string> tokens(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> out;
  for (std::string t; in >> t;) out.push_back(std::move(t));
  return out;
}

}  // namespace

std::string serialize(const graph::Digraph& g) {
  std::ostringstream out;
  out << "sysgo-digraph v1\n";
  out << "n " << g.vertex_count() << '\n';
  for (const auto& a : g.arcs()) out << "arc " << a.tail << ' ' << a.head << '\n';
  return out.str();
}

graph::Digraph parse_digraph(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::getline(in, line);
  const auto magic = tokens(line);
  if (magic.size() != 2 || magic[0] != "sysgo-digraph" || magic[1] != "v1")
    fail(1, "not a sysgo-digraph v1 document");
  std::getline(in, line);
  const auto header = tokens(line);
  if (header.size() != 2 || header[0] != "n")
    fail(2, "malformed vertex count, expected 'n <n>'");
  const int n = util::parse_int_in(header[1], at_line(2) + ": n",
                                   {0, kMaxTextVertices});
  graph::Digraph g(n);
  for (int line_no = 3; std::getline(in, line); ++line_no) {
    const auto fields = tokens(line);
    if (fields.empty()) continue;
    if (fields.size() != 3 || fields[0] != "arc")
      fail(line_no, "expected 'arc <tail> <head>'");
    const std::string what = at_line(line_no) + ": arc";
    const int tail = util::parse_int(fields[1], what);
    const int head = util::parse_int(fields[2], what);
    if (tail < 0 || tail >= n || head < 0 || head >= n)
      throw std::out_of_range(at_line(line_no) + ": arc endpoint out of range [0, " +
                              std::to_string(n) + ")");
    g.add_arc(tail, head);
  }
  g.finalize();
  return g;
}

}  // namespace sysgo::io
