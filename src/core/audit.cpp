#include "core/audit.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <stdexcept>
#include <string>

#include "linalg/polynomial.hpp"
#include "linalg/roots.hpp"

namespace sysgo::core {

std::vector<VertexActivity> vertex_activities(
    const protocol::CompiledSchedule& cs) {
  std::vector<VertexActivity> acts(static_cast<std::size_t>(cs.n()));
  const bool full = cs.mode() == protocol::Mode::kFullDuplex;
  for (int r = 0; r < cs.round_count(); ++r) {
    // A round is a matching, so a vertex is an endpoint of at most one arc
    // (half duplex) or pair (full duplex): one entry per active round, in
    // round order.
    for (const graph::Arc& a : cs.round_pairs(r)) {
      auto& tail = acts[static_cast<std::size_t>(a.tail)];
      auto& head = acts[static_cast<std::size_t>(a.head)];
      ++tail.right_rounds;  // sends, or exchanges
      ++head.left_rounds;   // receives, or exchanges
      if (full) {
        ++tail.left_rounds;
        ++head.right_rounds;
      }
      tail.active_rounds.push_back(r);
      head.active_rounds.push_back(r);
    }
  }
  return acts;
}

namespace {

// Half-duplex per-vertex bound (Lemma 4.3 with per-period totals):
// λ·√(p_R(λ))·√(p_L(λ)); zero when the vertex never relays.
double half_duplex_vertex_bound(const VertexActivity& act, double lambda) {
  if (act.left_rounds == 0 || act.right_rounds == 0) return 0.0;
  return lambda * std::sqrt(linalg::delay_polynomial(act.right_rounds, lambda)) *
         std::sqrt(linalg::delay_polynomial(act.left_rounds, lambda));
}

// Full-duplex per-vertex bound: the local matrix is doubly indexed by the
// vertex's activation rounds (cyclically repeated, entries λ^δ for delays
// 0 < δ < s); ‖A‖₂² <= ‖A‖₁·‖A‖∞ = (max col sum)·(max row sum).
double full_duplex_vertex_bound(const VertexActivity& act, int s, double lambda) {
  const auto& rounds = act.active_rounds;
  if (rounds.size() < 2) return 0.0;  // no pair of activations within a window
  double max_row = 0.0;
  double max_col = 0.0;
  for (std::size_t a = 0; a < rounds.size(); ++a) {
    double row = 0.0;
    double col = 0.0;
    for (std::size_t b = 0; b < rounds.size(); ++b) {
      if (a == b) continue;  // same activation recurs at delay s, outside window
      const int fwd = ((rounds[b] - rounds[a]) % s + s) % s;   // delay a -> b
      const int bwd = ((rounds[a] - rounds[b]) % s + s) % s;   // delay b -> a
      if (fwd > 0 && fwd < s) row += std::pow(lambda, fwd);
      if (bwd > 0 && bwd < s) col += std::pow(lambda, bwd);
    }
    max_row = std::max(max_row, row);
    max_col = std::max(max_col, col);
  }
  return std::sqrt(max_row * max_col);
}

// The distinct activity summaries of a schedule, in order of first
// occurrence: first_vertex[c] is the lowest vertex whose summary is
// summaries[c].  Built once per audit; every λ is then evaluated over the
// classes only (see the header for why this is bit-identical).
struct ActivityClasses {
  std::vector<VertexActivity> summaries;
  std::vector<int> first_vertex;
};

ActivityClasses activity_classes(const protocol::CompiledSchedule& cs) {
  ActivityClasses classes;
  std::map<VertexActivity, std::size_t> seen;
  auto acts = vertex_activities(cs);
  for (std::size_t v = 0; v < acts.size(); ++v) {
    if (!seen.try_emplace(acts[v], classes.summaries.size()).second) continue;
    classes.summaries.push_back(std::move(acts[v]));
    classes.first_vertex.push_back(static_cast<int>(v));
  }
  return classes;
}

// Max of the per-vertex bound over activity summaries — the shared core of
// the audit entry points, evaluated once per λ without re-walking the
// schedule.
double norm_bound_from_activities(std::span<const VertexActivity> acts, int s,
                                  double lambda, protocol::Mode mode) {
  if (!(lambda > 0.0 && lambda < 1.0))
    throw std::invalid_argument("audit_norm_bound: need 0 < lambda < 1");
  double worst = 0.0;
  for (const auto& act : acts)
    worst = std::max(worst, vertex_norm_bound(act, s, lambda, mode));
  return worst;
}

}  // namespace

double vertex_norm_bound(const VertexActivity& activity, int s, double lambda,
                         protocol::Mode mode) {
  return mode == protocol::Mode::kFullDuplex
             ? full_duplex_vertex_bound(activity, s, lambda)
             : half_duplex_vertex_bound(activity, lambda);
}

double audit_norm_bound(const protocol::CompiledSchedule& cs, double lambda) {
  // The audit's period reading is only meaningful for periodic schedules;
  // a compiled finite protocol (possibly empty) must not masquerade as one.
  cs.require_periodic("audit_norm_bound");
  return norm_bound_from_activities(activity_classes(cs).summaries,
                                    cs.period_length(), lambda, cs.mode());
}

AuditResult audit_schedule(const protocol::CompiledSchedule& cs) {
  cs.require_periodic("audit_schedule");
  const int s = cs.period_length();
  if (s < 3) return {-1.0, -1.0, -1, -1};  // Theorem 4.1 needs s >= 3
  AuditResult res;
  const auto classes = activity_classes(cs);
  const protocol::Mode mode = cs.mode();

  constexpr double kLoLambda = 1e-9;
  constexpr double kHiLambda = 1.0 - 1e-9;
  const auto f = [&](double lam) {
    return norm_bound_from_activities(classes.summaries, s, lam, mode) - 1.0;
  };

  if (f(kHiLambda) <= 0.0) {
    // Norm bound below 1 even as λ -> 1: the schedule has no relaying
    // vertex; gossip cannot complete and no finite certificate applies.
    res.lambda_star = kHiLambda;
  } else {
    const auto root = linalg::bisect(f, kLoLambda, kHiLambda);
    res.lambda_star = root.x;
  }
  res.e_coeff = e_coefficient(res.lambda_star);
  res.round_lower_bound = theorem41_round_bound(res.lambda_star, cs.n());

  // The lowest vertex attaining the bound at λ*: classes run in order of
  // first occurrence, so the first worst class holds it.
  double worst = -1.0;
  for (std::size_t c = 0; c < classes.summaries.size(); ++c) {
    const double b =
        vertex_norm_bound(classes.summaries[c], s, res.lambda_star, mode);
    if (b > worst) {
      worst = b;
      res.worst_vertex = classes.first_vertex[c];
    }
  }
  return res;
}

SeparatorAuditResult audit_schedule_with_separator(
    const protocol::CompiledSchedule& cs, int distance, std::size_t min_size) {
  cs.require_periodic("audit_schedule_with_separator");
  if (distance < 1 || min_size == 0)
    throw std::invalid_argument(
        "audit_schedule_with_separator: need distance >= 1, min_size >= 1");

  const auto classes = activity_classes(cs);
  const int s = cs.period_length();
  const double log_c = std::log2(static_cast<double>(min_size));

  // For a fixed λ with F = audit_norm_bound(λ) <= 1, find the smallest t
  // (>= distance - 1, since items must traverse that many arcs) with
  //   t·log2(1/λ) + log2(t - distance + 2) + log2(t)
  //     >= log_c + (distance - 1)·log2(1/F).
  const auto certified = [&](double lambda) {
    const double f =
        norm_bound_from_activities(classes.summaries, s, lambda, cs.mode());
    // f > 1: λ not certified.  f == 0: no vertex relays, so no finite
    // certificate applies (gossip across distance >= 2 is impossible anyway).
    if (f > 1.0 || f <= 0.0) return 0;
    const double log_inv = std::log2(1.0 / lambda);
    const double rhs = log_c + (distance - 1) * std::log2(1.0 / f);
    // Floor: an item advances at most one arc per round, so t >= distance
    // independently of the matrix argument (and t - d + 2 stays positive).
    int t = std::max(1, distance);
    while (t * log_inv + std::log2(static_cast<double>(t - distance + 2)) +
               std::log2(static_cast<double>(t)) <
           rhs) {
      ++t;
      if (t > (1 << 28)) break;  // defensive; never hit in practice
    }
    return t;
  };

  // Scan λ on a grid: the objective trades log2(1/λ) against the
  // (distance-1)·log2(1/F) credit, so the maximizer is interior.
  SeparatorAuditResult best;
  constexpr int kGrid = 512;
  for (int i = 1; i < kGrid; ++i) {
    const double lambda = static_cast<double>(i) / kGrid;
    const int t = certified(lambda);
    if (t > best.round_lower_bound) {
      best.round_lower_bound = t;
      best.lambda = lambda;
    }
  }
  return best;
}

}  // namespace sysgo::core
