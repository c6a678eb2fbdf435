// Seeded mutation tests for the plain-text formats: every mutant of a
// small valid schedule or digraph document is either rejected with the
// parser's documented exception — std::invalid_argument naming the line,
// or std::out_of_range for a digraph arc endpoint outside [0, n) — or
// parses to a value whose serialize -> parse round-trips.  A schedule that
// parses then either fails compile with std::invalid_argument or audits
// and simulates.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/audit.hpp"
#include "io/graph_text.hpp"
#include "io/protocol_text.hpp"
#include "protocol/builders.hpp"
#include "protocol/compiled.hpp"
#include "simulator/gossip_sim.hpp"
#include "topology/classic.hpp"
#include "topology/de_bruijn.hpp"
#include "../mutation.hpp"

namespace sysgo::io {
namespace {

using protocol::Mode;
using test::run_mutations;

// A mutated header may declare up to kMaxTextVertices vertices, and a
// knowledge matrix is O(n^2) bits: gossip runs a few rounds on small n only.
constexpr int kSimulateRounds = 64;
constexpr int kSimulateMaxVertices = 4096;

bool consume_schedule(const std::string& text) {
  protocol::SystolicSchedule s;
  try {
    s = parse_schedule(text);
  } catch (const std::invalid_argument&) {
    return false;
  }
  const std::string once = serialize(s);
  EXPECT_EQ(serialize(parse_schedule(once)), once);
  protocol::CompiledSchedule cs;
  try {
    cs = protocol::CompiledSchedule::compile(s);
  } catch (const std::invalid_argument&) {
    return true;  // parsed, but not a valid schedule
  }
  (void)core::audit_schedule(cs);
  if (cs.n() <= kSimulateMaxVertices)
    (void)simulator::gossip_time(cs, kSimulateRounds);
  return true;
}

bool consume_digraph(const std::string& text) {
  graph::Digraph g;
  try {
    g = parse_digraph(text);
  } catch (const std::invalid_argument&) {
    return false;
  } catch (const std::out_of_range&) {
    return false;
  }
  const std::string once = serialize(g);
  EXPECT_EQ(serialize(parse_digraph(once)), once);
  return true;
}

TEST(TextMutation, ScheduleRejectsCleanlyOrRoundTrips) {
  std::uint64_t seed = 0x5c4edULL;
  for (Mode mode : {Mode::kHalfDuplex, Mode::kFullDuplex}) {
    const std::string base =
        serialize(protocol::edge_coloring_schedule(topology::cycle(6), mode));
    run_mutations(base, seed++,
                  mode == Mode::kFullDuplex ? "full-duplex schedule"
                                            : "half-duplex schedule",
                  consume_schedule);
  }
}

TEST(TextMutation, DigraphRejectsCleanlyOrRoundTrips) {
  const std::string base = serialize(topology::de_bruijn(2, 3));
  run_mutations(base, 0xd16aULL, "digraph", consume_digraph);
}

}  // namespace
}  // namespace sysgo::io
