#include "analysis/gap.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/audit.hpp"
#include "linalg/matrix.hpp"
#include "linalg/power_iteration.hpp"
#include "protocol/classic_protocols.hpp"
#include "topology/classic.hpp"

namespace sysgo::analysis {
namespace {

using protocol::CompiledSchedule;
using protocol::Mode;

TEST(Gap, ExactNormBelowAnalyticBoundEverywhere) {
  const auto cs =
      CompiledSchedule::compile(protocol::cycle_schedule(8, Mode::kHalfDuplex));
  for (double lam : {0.4, 0.55, 0.65}) {
    for (const auto& row : audit_gap_report(cs, lam)) {
      EXPECT_LE(row.exact_norm, row.analytic_bound + 1e-9)
          << "vertex " << row.vertex << " lam " << lam;
      EXPECT_GE(row.gap(), -1e-9);
    }
  }
}

TEST(Gap, RowsSortedByAnalyticBound) {
  const auto rows = audit_gap_report(
      CompiledSchedule::compile(protocol::path_schedule(8, Mode::kHalfDuplex)), 0.5);
  for (std::size_t i = 1; i < rows.size(); ++i)
    EXPECT_GE(rows[i - 1].analytic_bound, rows[i].analytic_bound - 1e-12);
}

TEST(Gap, PathEndpointsHaveSmallerBoundThanRelays) {
  const auto rows = audit_gap_report(
      CompiledSchedule::compile(protocol::path_schedule(8, Mode::kHalfDuplex)), 0.5);
  // Endpoints (vertices 0 and 7) have L = R = 1; interior L = R = 2.
  double endpoint_bound = 0.0, relay_bound = 0.0;
  for (const auto& row : rows) {
    if (row.vertex == 0) endpoint_bound = row.analytic_bound;
    if (row.vertex == 3) relay_bound = row.analytic_bound;
  }
  EXPECT_LT(endpoint_bound, relay_bound);
}

TEST(Gap, NonRelayingVertexHasZeroNorm) {
  protocol::SystolicSchedule sched;
  sched.n = 3;
  sched.mode = Mode::kHalfDuplex;
  sched.period = {{{{1, 0}}}, {{{2, 1}}}};  // vertex 2 only sends, 0 only receives
  const auto cs = CompiledSchedule::compile(sched);
  EXPECT_DOUBLE_EQ(exact_local_norm(cs, 0, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(exact_local_norm(cs, 2, 0.5), 0.0);
  EXPECT_GT(exact_local_norm(cs, 1, 0.5), 0.0);
}

TEST(Gap, ExactNormGrowsWithWindow) {
  const auto cs =
      CompiledSchedule::compile(protocol::cycle_schedule(8, Mode::kHalfDuplex));
  const double n2 = exact_local_norm(cs, 0, 0.5, 2);
  const double n8 = exact_local_norm(cs, 0, 0.5, 8);
  EXPECT_GE(n8, n2 - 1e-12);
}

TEST(Gap, FullDuplexReportConsistent) {
  const auto cs =
      CompiledSchedule::compile(protocol::hypercube_schedule(3, Mode::kFullDuplex));
  for (const auto& row : audit_gap_report(cs, 0.5, 6)) {
    EXPECT_LE(row.exact_norm, row.analytic_bound + 1e-9);
    // Hypercube schedule keeps every vertex active every round.
    EXPECT_EQ(row.left_rounds, 3);
    EXPECT_EQ(row.right_rounds, 3);
  }
}

TEST(Gap, BindingVertexMatchesAudit) {
  const auto cs =
      CompiledSchedule::compile(protocol::path_schedule(6, Mode::kHalfDuplex));
  const auto audit = core::audit_schedule(cs);
  const auto rows = audit_gap_report(cs, audit.lambda_star);
  // The top row's analytic bound at λ* is the certificate's norm 1.
  ASSERT_FALSE(rows.empty());
  EXPECT_NEAR(rows.front().analytic_bound, 1.0, 1e-6);
}

// The report derives every vertex's in/out rounds in one pass over the
// window; the reference scans the authored period once per vertex.
TEST(Gap, ReportMatchesAPerVertexScanOfTheAuthoredRounds) {
  constexpr int kPeriods = 3;
  constexpr double kLambda = 0.6;
  for (Mode mode : {Mode::kHalfDuplex, Mode::kFullDuplex}) {
    const auto sched = protocol::cycle_schedule(7, mode);
    const int s = sched.period_length();
    std::vector<double> want(static_cast<std::size_t>(sched.n), 0.0);
    for (int v = 0; v < sched.n; ++v) {
      std::vector<int> in, out;
      for (int i = 1; i <= kPeriods * s; ++i) {
        bool receives = false, sends = false;
        for (const auto& a : sched.period[static_cast<std::size_t>((i - 1) % s)].arcs) {
          receives = receives || a.head == v;
          sends = sends || a.tail == v;
        }
        if (receives) in.push_back(i);
        if (sends) out.push_back(i);
      }
      if (in.empty() || out.empty()) continue;
      linalg::Matrix m(in.size(), out.size());
      for (std::size_t r = 0; r < in.size(); ++r)
        for (std::size_t c = 0; c < out.size(); ++c)
          if (out[c] - in[r] > 0 && out[c] - in[r] < s)
            m(r, c) = std::pow(kLambda, out[c] - in[r]);
      want[static_cast<std::size_t>(v)] = linalg::operator_norm(m).value;
    }
    const auto cs = CompiledSchedule::compile(sched);
    const auto rows = audit_gap_report(cs, kLambda, kPeriods);
    ASSERT_EQ(rows.size(), want.size());
    for (const auto& row : rows) {
      EXPECT_DOUBLE_EQ(row.exact_norm,
                       want[static_cast<std::size_t>(row.vertex)])
          << "vertex " << row.vertex;
      EXPECT_DOUBLE_EQ(row.exact_norm,
                       exact_local_norm(cs, row.vertex, kLambda, kPeriods));
    }
  }
}

TEST(Gap, RejectsBadLambda) {
  const auto cs =
      CompiledSchedule::compile(protocol::path_schedule(4, Mode::kHalfDuplex));
  EXPECT_THROW((void)exact_local_norm(cs, 0, 0.0), std::invalid_argument);
  EXPECT_THROW((void)exact_local_norm(cs, 0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)audit_gap_report(cs, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace sysgo::analysis
