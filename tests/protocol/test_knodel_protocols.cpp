#include "protocol/knodel_protocols.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/audit.hpp"
#include "simulator/gossip_sim.hpp"
#include "topology/knodel.hpp"

namespace sysgo::protocol {
namespace {

TEST(KnodelProtocols, StructurallyValid) {
  const int n = 16, delta = 4;
  const auto g = topology::knodel(delta, n);
  for (auto mode : {Mode::kHalfDuplex, Mode::kFullDuplex}) {
    const auto sched = knodel_schedule(delta, n, mode);
    EXPECT_NO_THROW((void)CompiledSchedule::compile(sched, &g));
  }
}

TEST(KnodelProtocols, RoundsArePerfectMatchings) {
  const auto sched = knodel_schedule(4, 16, Mode::kFullDuplex);
  for (const auto& r : sched.period) EXPECT_EQ(r.arcs.size(), 16u);  // both dirs
}

TEST(KnodelProtocols, OptimalGossipOnPowersOfTwo) {
  // W(log2 n, n) with ascending dimensions gossips in exactly log2(n)
  // full-duplex rounds — the absolute optimum ceil(log2 n).
  for (int n : {8, 16, 32, 64}) {
    const int delta = topology::knodel_max_delta(n);
    const auto sched = knodel_schedule(delta, n, Mode::kFullDuplex);
    const int t =
        simulator::gossip_time(CompiledSchedule::compile(sched), 4 * delta);
    EXPECT_EQ(t, static_cast<int>(std::log2(n))) << "n=" << n;
  }
}

TEST(KnodelProtocols, NearOptimalOnGeneralEvenN) {
  for (int n : {10, 20, 24}) {
    const int delta = topology::knodel_max_delta(n);
    const auto sched = knodel_schedule(delta, n, Mode::kFullDuplex);
    const int t =
        simulator::gossip_time(CompiledSchedule::compile(sched), 8 * delta);
    ASSERT_GT(t, 0) << "n=" << n;
    EXPECT_LE(t, static_cast<int>(std::ceil(std::log2(n))) + delta) << "n=" << n;
    EXPECT_GE(t, static_cast<int>(std::ceil(std::log2(n)))) << "n=" << n;
  }
}

TEST(KnodelProtocols, HalfDuplexCompletesWithinDoubledBudget) {
  const int n = 16;
  const int delta = topology::knodel_max_delta(n);
  const auto sched = knodel_schedule(delta, n, Mode::kHalfDuplex);
  const int t =
      simulator::gossip_time(CompiledSchedule::compile(sched), 16 * delta);
  ASSERT_GT(t, 0);
  // Half-duplex >= the 1.4404·log2(n) bound of [4,17,15,26] (minus slack).
  EXPECT_GE(t, static_cast<int>(std::log2(n)));
}

TEST(KnodelProtocols, AuditCertificateHolds) {
  const int n = 32;
  const int delta = topology::knodel_max_delta(n);
  const auto sched = knodel_schedule(delta, n, Mode::kFullDuplex);
  const auto cs = CompiledSchedule::compile(sched);
  const auto audit = core::audit_schedule(cs);
  const int measured = simulator::gossip_time(cs, 8 * delta);
  ASSERT_GT(measured, 0);
  EXPECT_LE(audit.round_lower_bound, measured);
}

TEST(KnodelProtocols, RejectsBadParameters) {
  EXPECT_THROW((void)knodel_schedule(1, 9, Mode::kFullDuplex),
               std::invalid_argument);
  EXPECT_THROW((void)knodel_schedule(5, 16, Mode::kFullDuplex),
               std::invalid_argument);
}

}  // namespace
}  // namespace sysgo::protocol
