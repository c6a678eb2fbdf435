#include "io/protocol_text.hpp"

#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "io/text_limits.hpp"
#include "util/parse.hpp"

namespace sysgo::io {
namespace {

using protocol::Mode;

// "protocol_text: line <k>" — the prefix of every parse error.
std::string at_line(int line_no) {
  return "protocol_text: line " + std::to_string(line_no);
}

[[noreturn]] void fail(int line_no, const std::string& what) {
  throw std::invalid_argument(at_line(line_no) + ": " + what);
}

std::vector<std::string> tokens(const std::string& text) {
  std::istringstream in(text);
  std::vector<std::string> out;
  for (std::string t; in >> t;) out.push_back(std::move(t));
  return out;
}

Mode parse_mode(const std::string& word, int line_no) {
  if (const auto m = protocol::parse_mode_token(word)) return *m;
  fail(line_no, "unknown mode '" + word + "'");
}

// One "tail>head" arc; both endpoints are checked integers in [0, n).
graph::Arc parse_arc(const std::string& arc, int n, int line_no) {
  const auto sep = arc.find('>');
  if (sep == std::string::npos) fail(line_no, "bad arc '" + arc + "'");
  const std::string what = at_line(line_no) + ": arc '" + arc + "'";
  const int tail = util::parse_int(std::string_view(arc).substr(0, sep), what);
  const int head = util::parse_int(std::string_view(arc).substr(sep + 1), what);
  if (tail < 0 || tail >= n || head < 0 || head >= n)
    fail(line_no, "arc '" + arc + "': endpoint out of range [0, " +
                      std::to_string(n) + ")");
  return {tail, head};
}

}  // namespace

std::string serialize(const protocol::SystolicSchedule& s) {
  std::ostringstream out;
  out << "sysgo-schedule v1\n";
  out << "n " << s.n << " mode " << protocol::mode_token(s.mode) << '\n';
  for (std::size_t i = 0; i < s.period.size(); ++i) {
    out << "round " << (i + 1) << ":";
    for (const auto& a : s.period[i].arcs) out << ' ' << a.tail << '>' << a.head;
    out << '\n';
  }
  return out.str();
}

// Line 1 is "sysgo-schedule v1"; line 2 is "n <n> mode <half|full>"; each
// later non-empty line is "round <k>: <arc>...", rounds consecutive from 1.
protocol::SystolicSchedule parse_schedule(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::getline(in, line);
  const auto magic = tokens(line);
  if (magic.size() != 2 || magic[0] != "sysgo-schedule" || magic[1] != "v1")
    fail(1, "not a schedule v1 document");
  std::getline(in, line);
  const auto fields = tokens(line);
  if (fields.size() != 4 || fields[0] != "n" || fields[2] != "mode")
    fail(2, "malformed header, expected 'n <n> mode <half|full>'");
  protocol::SystolicSchedule s;
  s.n = util::parse_int_in(fields[1], at_line(2) + ": n",
                           {1, kMaxTextVertices});
  s.mode = parse_mode(fields[3], 2);

  int line_no = 2;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto colon = line.find(':');
    const auto head = tokens(line.substr(0, colon));
    if (colon == std::string::npos || head.size() != 2 || head[0] != "round")
      fail(line_no, "expected 'round <k>:'");
    const int round_no =
        util::parse_int(head[1], at_line(line_no) + ": round number");
    if (round_no != s.period_length() + 1)
      fail(line_no, "rounds must be consecutive from 1");
    protocol::Round round;
    for (const std::string& arc : tokens(line.substr(colon + 1)))
      round.arcs.push_back(parse_arc(arc, s.n, line_no));
    round.canonicalize();
    s.period.push_back(std::move(round));
  }
  return s;
}

}  // namespace sysgo::io
