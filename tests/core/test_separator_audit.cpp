#include <gtest/gtest.h>

#include "core/audit.hpp"
#include "protocol/builders.hpp"
#include "protocol/classic_protocols.hpp"
#include "separator/separator.hpp"
#include "simulator/gossip_sim.hpp"
#include "topology/butterfly.hpp"
#include "topology/classic.hpp"
#include "topology/topology.hpp"

namespace sysgo::core {
namespace {

using protocol::CompiledSchedule;
using protocol::Mode;

TEST(SeparatorAudit, StrongerThanPlainAuditOnPaths) {
  // P_n: endpoints 0 and n-1 are singleton "sets" at distance n-1; the
  // separator certificate captures the linear diameter term the plain
  // Theorem 4.1 audit cannot see.
  const int n = 32;
  const auto sched =
      CompiledSchedule::compile(protocol::path_schedule(n, Mode::kHalfDuplex));
  const auto plain = audit_schedule(sched);
  const auto refined = audit_schedule_with_separator(sched, n - 1, 1);
  EXPECT_GT(refined.round_lower_bound, plain.round_lower_bound);
  EXPECT_GE(refined.round_lower_bound, n - 1);
  // And still below the measured time.
  const int measured = simulator::gossip_time(sched, 20 * n);
  ASSERT_GT(measured, 0);
  EXPECT_LE(refined.round_lower_bound, measured);
}

TEST(SeparatorAudit, ButterflySeparatorCertificate) {
  const int d = 2, D = 3;
  const auto g = topology::make_family(topology::Family::kButterfly, d, D);
  const auto sep = separator::build_separator(topology::Family::kButterfly, d, D);
  const auto chk = separator::verify_separator(g, sep);
  ASSERT_EQ(chk.min_distance, 2 * D);

  const auto sched = CompiledSchedule::compile(
      protocol::edge_coloring_schedule(g, Mode::kHalfDuplex));
  const auto refined = audit_schedule_with_separator(
      sched, chk.min_distance, std::min(chk.size1, chk.size2));
  const auto plain = audit_schedule(sched);
  EXPECT_GE(refined.round_lower_bound, plain.round_lower_bound);

  const int measured = simulator::gossip_time(sched, 100000);
  ASSERT_GT(measured, 0);
  EXPECT_LE(refined.round_lower_bound, measured);
}

TEST(SeparatorAudit, MonotoneInDistanceAndSize) {
  const auto sched =
      CompiledSchedule::compile(protocol::cycle_schedule(16, Mode::kHalfDuplex));
  const int base = audit_schedule_with_separator(sched, 4, 4).round_lower_bound;
  EXPECT_GE(audit_schedule_with_separator(sched, 8, 4).round_lower_bound, base);
  EXPECT_GE(audit_schedule_with_separator(sched, 4, 8).round_lower_bound, base);
}

TEST(SeparatorAudit, DistanceOneReducesTowardPlainForm) {
  // distance = 1 removes the (d-1)·log(1/F) credit entirely.
  const auto sched =
      CompiledSchedule::compile(protocol::cycle_schedule(8, Mode::kHalfDuplex));
  const auto res = audit_schedule_with_separator(sched, 1, 4);
  EXPECT_GT(res.round_lower_bound, 0);
  const int measured = simulator::gossip_time(sched, 1000);
  EXPECT_LE(res.round_lower_bound, measured);
}

TEST(SeparatorAudit, RejectsBadInputs) {
  const auto sched =
      CompiledSchedule::compile(protocol::path_schedule(4, Mode::kHalfDuplex));
  EXPECT_THROW((void)audit_schedule_with_separator(sched, 0, 4),
               std::invalid_argument);
  EXPECT_THROW((void)audit_schedule_with_separator(sched, 3, 0),
               std::invalid_argument);
}

TEST(SeparatorAudit, NonRelayingScheduleYieldsNoCertificate) {
  protocol::SystolicSchedule sched;
  sched.n = 4;
  sched.mode = Mode::kHalfDuplex;
  sched.period = {{{{1, 0}}}, {{{2, 3}}}};
  const auto res =
      audit_schedule_with_separator(CompiledSchedule::compile(sched), 3, 2);
  EXPECT_EQ(res.round_lower_bound, 0);
}

}  // namespace
}  // namespace sysgo::core
