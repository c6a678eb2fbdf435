#include "analysis/gap.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/audit.hpp"
#include "linalg/matrix.hpp"
#include "linalg/polynomial.hpp"
#include "linalg/power_iteration.hpp"

namespace sysgo::analysis {
namespace {

// Rounds (1-based) within the window where a vertex has an incoming /
// outgoing activation.
struct LocalRounds {
  std::vector<int> in_rounds;
  std::vector<int> out_rounds;
};

// Every vertex's local rounds in one pass over the window's arcs: an arc
// is an outgoing activation of its tail and an incoming one of its head (a
// full-duplex round holds both arcs of each pair).  A round is a matching,
// so each list gains at most one entry per round and stays ascending.
std::vector<LocalRounds> local_rounds(const protocol::CompiledSchedule& cs,
                                      int window) {
  std::vector<LocalRounds> lr(static_cast<std::size_t>(cs.n()));
  for (int i = 1; i <= window; ++i)
    for (const graph::Arc& a : cs.round_arcs(cs.round_index(i))) {
      lr[static_cast<std::size_t>(a.tail)].out_rounds.push_back(i);
      lr[static_cast<std::size_t>(a.head)].in_rounds.push_back(i);
    }
  return lr;
}

// The vertex's local delay matrix: rows = incoming activations, columns =
// outgoing activations, entry λ^{j−i} whenever 0 < j − i < s.
linalg::Matrix local_matrix(const LocalRounds& lr, int s, double lambda) {
  linalg::Matrix m(lr.in_rounds.size(), lr.out_rounds.size());
  for (std::size_t r = 0; r < lr.in_rounds.size(); ++r)
    for (std::size_t c = 0; c < lr.out_rounds.size(); ++c) {
      const int delay = lr.out_rounds[c] - lr.in_rounds[r];
      if (delay > 0 && delay < s)
        m(r, c) = std::pow(lambda, delay);
    }
  return m;
}

// The exact norm of one vertex's local delay matrix (0 when it never
// relays).
double local_norm(const LocalRounds& lr, int s, double lambda) {
  if (lr.in_rounds.empty() || lr.out_rounds.empty()) return 0.0;
  return linalg::operator_norm(local_matrix(lr, s, lambda)).value;
}

void check_lambda(double lambda, const char* who) {
  if (!(lambda > 0.0 && lambda < 1.0))
    throw std::invalid_argument(std::string(who) + ": need 0 < lambda < 1");
}

}  // namespace

double exact_local_norm(const protocol::CompiledSchedule& cs, int vertex,
                        double lambda, int periods) {
  check_lambda(lambda, "exact_local_norm");
  // A vertex outside the network matches no activation and has norm 0.
  if (vertex < 0 || vertex >= cs.n()) return 0.0;
  const auto lr = local_rounds(cs, periods * cs.period_length());
  return local_norm(lr[static_cast<std::size_t>(vertex)], cs.period_length(),
                    lambda);
}

std::vector<VertexGapRow> audit_gap_report(const protocol::CompiledSchedule& cs,
                                           double lambda, int periods) {
  check_lambda(lambda, "audit_gap_report");
  const auto acts = core::vertex_activities(cs);
  const auto lr = local_rounds(cs, periods * cs.period_length());
  std::vector<VertexGapRow> rows;
  rows.reserve(acts.size());
  for (int v = 0; v < cs.n(); ++v) {
    VertexGapRow row;
    row.vertex = v;
    row.left_rounds = acts[static_cast<std::size_t>(v)].left_rounds;
    row.right_rounds = acts[static_cast<std::size_t>(v)].right_rounds;
    row.exact_norm = local_norm(lr[static_cast<std::size_t>(v)],
                                cs.period_length(), lambda);
    row.analytic_bound =
        core::vertex_norm_bound(acts[static_cast<std::size_t>(v)],
                                cs.period_length(), lambda, cs.mode());
    rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end(), [](const VertexGapRow& a, const VertexGapRow& b) {
    return a.analytic_bound > b.analytic_bound;
  });
  return rows;
}

}  // namespace sysgo::analysis
