#include "io/protocol_text.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "protocol/builders.hpp"
#include "protocol/classic_protocols.hpp"
#include "protocol/compiled.hpp"
#include "protocol/knodel_protocols.hpp"
#include "protocol/tree_protocols.hpp"
#include "protocol/wbf_protocols.hpp"
#include "topology/classic.hpp"
#include "topology/topology.hpp"
#include "util/rng.hpp"

namespace sysgo::io {
namespace {

using protocol::Mode;

TEST(ProtocolText, SerializeBasicSchedule) {
  protocol::SystolicSchedule p;
  p.n = 4;
  p.mode = Mode::kHalfDuplex;
  p.period = {{{{0, 1}, {2, 3}}}, {{{1, 2}}}};
  const auto text = serialize(p);
  EXPECT_NE(text.find("sysgo-schedule v1"), std::string::npos);
  EXPECT_NE(text.find("n 4 mode half"), std::string::npos);
  EXPECT_NE(text.find("round 1: 0>1 2>3"), std::string::npos);
  EXPECT_NE(text.find("round 2: 1>2"), std::string::npos);
}

TEST(ProtocolText, RandomScheduleRoundTrip) {
  util::Rng rng(77);
  const auto g = topology::cycle(6);
  const auto p = protocol::random_systolic_schedule(g, 9, Mode::kHalfDuplex, rng);
  const auto q = parse_schedule(serialize(p));
  EXPECT_EQ(q.n, p.n);
  EXPECT_EQ(q.mode, p.mode);
  ASSERT_EQ(q.period.size(), p.period.size());
  for (std::size_t i = 0; i < p.period.size(); ++i) EXPECT_EQ(q.period[i], p.period[i]);
}

TEST(ProtocolText, ScheduleRoundTrip) {
  // n = 2^22 is the largest n the text formats accept.
  protocol::SystolicSchedule at_limit;
  at_limit.n = 1 << 22;
  at_limit.period = {{{{0, 1}}}};
  for (const auto& s :
       {protocol::hypercube_schedule(3, Mode::kFullDuplex), at_limit}) {
    const auto t = parse_schedule(serialize(s));
    EXPECT_EQ(t.n, s.n);
    EXPECT_EQ(t.mode, s.mode);
    ASSERT_EQ(t.period.size(), s.period.size());
    for (std::size_t i = 0; i < s.period.size(); ++i) EXPECT_EQ(t.period[i], s.period[i]);
  }
}

TEST(ProtocolText, EmptyRoundsSurviveRoundTrip) {
  protocol::SystolicSchedule p;
  p.n = 3;
  p.period = {{}, {{{0, 1}}}, {}};
  const auto q = parse_schedule(serialize(p));
  ASSERT_EQ(q.period.size(), 3u);
  EXPECT_TRUE(q.period[0].arcs.empty());
  EXPECT_TRUE(q.period[2].arcs.empty());
}

TEST(ProtocolText, RejectsWrongMagic) {
  // The retired finite-protocol header is not a schedule document.
  EXPECT_THROW((void)parse_schedule("sysgo-protocol v1\nn 2 mode half\n"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_schedule("garbage"), std::invalid_argument);
}

TEST(ProtocolText, RejectsBadMode) {
  EXPECT_THROW((void)parse_schedule("sysgo-schedule v1\nn 2 mode duplex\n"),
               std::invalid_argument);
}

TEST(ProtocolText, RejectsOutOfRangeArc) {
  EXPECT_THROW(
      (void)parse_schedule("sysgo-schedule v1\nn 2 mode half\nround 1: 0>5\n"),
      std::invalid_argument);
}

TEST(ProtocolText, RejectsNonConsecutiveRounds) {
  EXPECT_THROW(
      (void)parse_schedule("sysgo-schedule v1\nn 2 mode half\nround 2: 0>1\n"),
      std::invalid_argument);
}

TEST(ProtocolText, RejectsMalformedArc) {
  EXPECT_THROW(
      (void)parse_schedule("sysgo-schedule v1\nn 2 mode half\nround 1: 0-1\n"),
      std::invalid_argument);
}

TEST(ProtocolText, FuzzedInputsNeverCrash) {
  // Robustness: arbitrary mutations of a valid document either parse or
  // throw std::invalid_argument/std::exception — never crash.
  util::Rng rng(2025);
  const auto base = serialize(protocol::path_schedule(4, Mode::kHalfDuplex));
  for (int trial = 0; trial < 200; ++trial) {
    std::string text = base;
    const int mutations = rng.uniform_int(1, 5);
    for (int m = 0; m < mutations; ++m) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(text.size()) - 1));
      switch (rng.uniform_int(0, 2)) {
        case 0: text[pos] = static_cast<char>(rng.uniform_int(32, 126)); break;
        case 1: text.erase(pos, 1); break;
        default: text.insert(pos, 1, static_cast<char>(rng.uniform_int(32, 126)));
      }
    }
    try {
      const auto p = parse_schedule(text);
      // If it parsed, the result must be structurally sane.
      EXPECT_GE(p.n, 1);
      for (const auto& r : p.period)
        for (const auto& a : r.arcs) {
          EXPECT_GE(a.tail, 0);
          EXPECT_LT(a.tail, p.n);
          EXPECT_GE(a.head, 0);
          EXPECT_LT(a.head, p.n);
        }
    } catch (const std::exception&) {
      // Rejected: fine.
    }
  }
}

// Round-trip property over every builder-produced schedule: for all
// registered families (edge-coloring construction) and the dedicated
// schedule builders, in both duplex modes, parse(serialize(s)) compiles to
// a CompiledSchedule identical to compile(s) — the text format loses
// nothing the executors consume.
TEST(ProtocolText, BuilderSchedulesRoundTripToIdenticalCompiledSchedule) {
  using protocol::CompiledSchedule;
  using protocol::SystolicSchedule;
  using topology::Family;

  std::vector<std::pair<std::string, SystolicSchedule>> corpus;
  // One small member of every registered family, edge-coloring schedule.
  const std::vector<std::tuple<Family, int, int>> members = {
      {Family::kButterfly, 2, 3},   {Family::kWrappedButterflyDirected, 2, 3},
      {Family::kWrappedButterfly, 2, 3}, {Family::kDeBruijnDirected, 2, 4},
      {Family::kDeBruijn, 2, 4},    {Family::kKautzDirected, 2, 3},
      {Family::kKautz, 2, 3},       {Family::kCycle, 2, 7},
      {Family::kComplete, 2, 5},    {Family::kHypercube, 2, 3},
      {Family::kCubeConnectedCycles, 2, 3}, {Family::kShuffleExchange, 2, 3},
      {Family::kKnodel, 3, 8},
  };
  for (protocol::Mode mode : {protocol::Mode::kHalfDuplex,
                              protocol::Mode::kFullDuplex}) {
    const std::string suffix =
        mode == protocol::Mode::kHalfDuplex ? " half" : " full";
    for (const auto& [f, d, D] : members) {
      const auto g = topology::make_family(f, d, D);
      corpus.emplace_back(topology::family_name(f, d) + suffix,
                          protocol::edge_coloring_schedule(g, mode));
    }
    // The dedicated schedule builders.
    corpus.emplace_back("path" + suffix, protocol::path_schedule(6, mode));
    corpus.emplace_back("cycle" + suffix, protocol::cycle_schedule(6, mode));
    corpus.emplace_back("grid" + suffix, protocol::grid_schedule(3, 4, mode));
    corpus.emplace_back("hypercube" + suffix,
                        protocol::hypercube_schedule(3, mode));
    corpus.emplace_back("complete" + suffix,
                        protocol::complete_power2_schedule(8, mode));
    corpus.emplace_back("knodel" + suffix, protocol::knodel_schedule(3, 8, mode));
    corpus.emplace_back("tree" + suffix, protocol::tree_schedule(2, 3, mode));
    corpus.emplace_back("wbf" + suffix, protocol::wbf_schedule(2, 3, mode));
  }
  corpus.emplace_back("wbf-dir", protocol::wbf_directed_schedule(2, 3));

  for (const auto& [name, sched] : corpus) {
    const auto parsed = parse_schedule(serialize(sched));
    EXPECT_TRUE(CompiledSchedule::compile(parsed) ==
                CompiledSchedule::compile(sched))
        << name;
  }
}

// Endpoints are checked integers: trailing junk, non-numbers and int
// overflow are rejected with the line named, never read as a nearby arc.
TEST(ProtocolText, MalformedEndpointsNameTheLine) {
  for (const char* arc : {"0x>1", "a>1", "0>99999999999", "1>2x", "0>+1",
                          "0>1>2", ">1"}) {
    const std::string text =
        std::string("sysgo-schedule v1\nn 4 mode half\nround 1: ") + arc + "\n";
    try {
      (void)parse_schedule(text);
      ADD_FAILURE() << "accepted " << arc;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
          << arc << ": " << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << arc << ": not std::invalid_argument: " << e.what();
    }
  }
}

TEST(ProtocolText, MalformedHeaderAndRoundNumbersNameTheLine) {
  const std::pair<const char*, const char*> cases[] = {
      {"sysgo-schedule v1\nn 4x mode half\n", "line 2"},
      {"sysgo-schedule v1\nn 99999999999 mode half\n", "line 2"},
      {"sysgo-schedule v1\nn 0 mode half\n", "line 2"},
      // Fits an int but not memory: a named limit, not std::bad_alloc.
      {"sysgo-schedule v1\nn 2147483647 mode half\n",
       "line 2: n must be in [1, 4194304]"},
      {"sysgo-schedule v1\nn 4 mode half extra\n", "line 2"},
      {"sysgo-schedule v1\nn 4 mode duplex\n", "line 2"},
      {"sysgo-schedule v1 extra\nn 4 mode half\n", "line 1"},
      {"sysgo-schedule v1\nn 4 mode half\nround 1x: 0>1\n", "line 3"},
      {"sysgo-schedule v1\nn 4 mode half\nround 1 0>1\n", "line 3"},
  };
  for (const auto& [text, line] : cases) {
    try {
      (void)parse_schedule(text);
      ADD_FAILURE() << "accepted " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(line), std::string::npos)
          << text << ": " << e.what();
    }
  }
}

TEST(ProtocolText, ErrorMessagesNameTheLine) {
  try {
    (void)parse_schedule("sysgo-schedule v1\nn 2 mode half\nround 1: 0>9\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

}  // namespace
}  // namespace sysgo::io
