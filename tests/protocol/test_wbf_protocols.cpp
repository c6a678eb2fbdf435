#include "protocol/wbf_protocols.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/audit.hpp"
#include "simulator/gossip_sim.hpp"
#include "topology/wrapped_butterfly.hpp"

namespace sysgo::protocol {
namespace {

TEST(WbfProtocols, DirectedScheduleValidAgainstNetwork) {
  for (int d : {2, 3})
    for (int D : {2, 3}) {
      const auto g = topology::wrapped_butterfly_directed(d, D);
      const auto sched = wbf_directed_schedule(d, D);
      EXPECT_EQ(sched.period_length(), d * D);
      EXPECT_NO_THROW((void)CompiledSchedule::compile(sched, &g))
          << "d=" << d << " D=" << D;
    }
}

TEST(WbfProtocols, RoundsArePerfectMatchings) {
  const int d = 2, D = 3;
  const auto sched = wbf_directed_schedule(d, D);
  const std::size_t words = 1u << D;
  for (const auto& r : sched.period) EXPECT_EQ(r.arcs.size(), words);
}

TEST(WbfProtocols, DirectedScheduleAchievesGossip) {
  for (int D : {2, 3, 4}) {
    const auto sched = wbf_directed_schedule(2, D);
    const int t =
        simulator::gossip_time(CompiledSchedule::compile(sched), 500 * D);
    EXPECT_GT(t, 0) << "D=" << D;
    // Items must circle the wrap at least once per digit: t >= D.
    EXPECT_GE(t, D);
  }
}

TEST(WbfProtocols, UndirectedSchedulesAchieveGossip) {
  const int d = 2, D = 3;
  const auto g = topology::wrapped_butterfly(d, D);
  for (auto mode : {Mode::kHalfDuplex, Mode::kFullDuplex}) {
    const auto sched = wbf_schedule(d, D, mode);
    EXPECT_GT(simulator::gossip_time(CompiledSchedule::compile(sched, &g), 2000), 0)
        << "mode " << static_cast<int>(mode);
  }
}

TEST(WbfProtocols, AuditCertificateHolds) {
  const auto sched = wbf_directed_schedule(2, 3);
  const auto cs = CompiledSchedule::compile(sched);
  const int measured = simulator::gossip_time(cs, 2000);
  ASSERT_GT(measured, 0);
  const auto audit = core::audit_schedule(cs);
  EXPECT_LE(audit.round_lower_bound, measured);
  EXPECT_GT(audit.round_lower_bound, 0);
}

TEST(WbfProtocols, MeasuredTimeWithinConstantFactorOfLowerBound) {
  // The dedicated schedule is reasonably efficient: within ~6x of
  // e(s)·log2(n) on WBF(2,4).
  const int d = 2, D = 4;
  const auto sched = wbf_directed_schedule(d, D);
  const int t = simulator::gossip_time(CompiledSchedule::compile(sched), 5000);
  ASSERT_GT(t, 0);
  const double logn = std::log2(static_cast<double>(sched.n));
  EXPECT_LE(t, 6.0 * 2.5 * logn);
}

TEST(WbfProtocols, RejectsBadParameters) {
  EXPECT_THROW((void)wbf_directed_schedule(1, 3), std::invalid_argument);
  EXPECT_THROW((void)wbf_schedule(2, 1, Mode::kHalfDuplex), std::invalid_argument);
}

}  // namespace
}  // namespace sysgo::protocol
