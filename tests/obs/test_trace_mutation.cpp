// Seeded mutation test for the two trace readers (flight bytes and Chrome
// JSON): every mutated input must either be rejected with
// std::runtime_error or parse into a dump that analyze() and
// to_chrome_json() accept.  Anything else — std::bad_alloc from a corrupt
// count, an out-of-range read, a stray exception type — fails the test.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <exception>
#include <string>

#include "obs/trace.hpp"
#include "obs/trace_report.hpp"
#include "util/rng.hpp"

namespace sysgo::obs::trace {
namespace {

/// Two lanes with every event kind, numeric and string args, a dropped
/// count, and a flow pair — the shapes a recorded sweep trace holds.
TraceDump sample_dump() {
  TraceDump dump;
  dump.strings = {"", "engine.task.simulate", "synth.restart", "family", "db",
                  "restart", "sweep.flow"};
  const auto event = [](EventKind kind, std::uint64_t ts, std::uint64_t dur,
                        NameId name) {
    Event e;
    e.kind = kind;
    e.ts_us = ts;
    e.dur_us = dur;
    e.name = name;
    return e;
  };
  Event task = event(EventKind::kComplete, 10, 400, 1);
  task.arg_count = 2;
  task.arg_keys = {3, 5};
  task.arg_vals = {4, 7};
  task.str_mask = 1;  // arg 0 is the string "db"
  Event restart = event(EventKind::kComplete, 120, 90, 2);
  restart.arg_count = 1;
  restart.arg_keys[0] = 5;
  restart.arg_vals[0] = 3;
  Event begin = event(EventKind::kFlowBegin, 15, 0, 6);
  begin.flow_id = 9;
  Event end = event(EventKind::kFlowEnd, 130, 0, 6);
  end.flow_id = 9;

  LaneDump main_lane;
  main_lane.name = "main";
  main_lane.events = {task, begin, event(EventKind::kInstant, 300, 0, 2)};
  LaneDump worker;
  worker.name = "pool-0";
  worker.dropped = 2;
  worker.events = {end, restart, event(EventKind::kComplete, 220, 50, 1)};
  dump.lanes = {main_lane, worker};
  return dump;
}

/// One to three byte-level edits: flip a bit, overwrite a byte with a
/// random value, insert a short random run, or truncate.
std::string mutate(const std::string& base, util::Rng& rng) {
  std::string s = base;
  const int edits = rng.uniform_int(1, 3);
  for (int k = 0; k < edits && !s.empty(); ++k) {
    const std::size_t at = rng.uniform_index(s.size());
    switch (rng.uniform_index(4)) {
      case 0:
        s[at] = static_cast<char>(s[at] ^ (1 << rng.uniform_int(0, 7)));
        break;
      case 1:
        s[at] = static_cast<char>(rng.uniform_int(0, 255));
        break;
      case 2: {
        std::string run(static_cast<std::size_t>(rng.uniform_int(1, 8)), '\0');
        for (char& c : run) c = static_cast<char>(rng.uniform_int(0, 255));
        s.insert(at, run);
        break;
      }
      default:
        s.resize(at);
        break;
    }
  }
  return s;
}

/// "Reject cleanly or round-trip": a parsed dump must survive the report
/// and the JSON export.  Returns false when the input was rejected.
bool parses_into_a_usable_dump(const std::string& bytes) {
  try {
    const TraceDump dump = parse_trace(bytes);
    (void)report_text(analyze(dump));
    (void)to_chrome_json(dump);
    return true;
  } catch (const std::runtime_error&) {
    return false;
  }
}

void run_mutations(const std::string& base, std::uint64_t seed,
                   const char* format) {
  constexpr int kMutations = 3000;
  util::Rng rng(seed);
  int parsed = 0;
  for (int i = 0; i < kMutations; ++i) {
    const std::string input = mutate(base, rng);
    try {
      parsed += parses_into_a_usable_dump(input) ? 1 : 0;
    } catch (const std::exception& e) {
      FAIL() << format << " mutation " << i << " threw a non-runtime_error: "
             << e.what();
    }
  }
  // Both outcomes occur: the test exercises the parser, not just its magic
  // check.
  EXPECT_GT(parsed, 0) << format;
  EXPECT_LT(parsed, kMutations) << format;
}

TEST(TraceMutation, FlightBytesRejectCleanlyOrRoundTrip) {
  const std::string base = to_flight_bytes(sample_dump());
  ASSERT_TRUE(parses_into_a_usable_dump(base));
  run_mutations(base, 0xf1199ULL, "flight");
}

TEST(TraceMutation, ChromeJsonRejectsCleanlyOrRoundTrips) {
  const std::string base = to_chrome_json(sample_dump());
  ASSERT_TRUE(parses_into_a_usable_dump(base));
  run_mutations(base, 0x15011ULL, "json");
}

// A string count near 2^32 in an otherwise valid file: the reader must
// fail on the count, before sizing the string table from it.
TEST(TraceMutation, HugeStringCountFailsBeforeAllocating) {
  std::string bytes = to_flight_bytes(sample_dump());
  const std::uint32_t huge = 0xfffffff0u;
  std::memcpy(bytes.data() + 12, &huge, sizeof huge);  // after magic+version
  try {
    (void)parse_flight_bytes(bytes);
    FAIL() << "a 0xfffffff0 string count parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("trace flight: string count"),
              std::string::npos)
        << e.what();
  }
}

// The same guard for a lane's 64-bit event count.
TEST(TraceMutation, HugeEventCountFailsBeforeAllocating) {
  TraceDump dump;
  dump.strings = {""};
  LaneDump lane;
  lane.name = "main";
  dump.lanes = {lane};
  std::string bytes = to_flight_bytes(dump);
  // magic(8) version(4) nstrings(4) len(4) nlanes(4) len(4) "main"(4)
  // dropped(8), then the event count.
  const std::uint64_t huge = std::uint64_t{1} << 40;
  ASSERT_EQ(bytes.size(), 48u);
  std::memcpy(bytes.data() + 40, &huge, sizeof huge);
  try {
    (void)parse_flight_bytes(bytes);
    FAIL() << "a 2^40 event count parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("trace flight: event count"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace sysgo::obs::trace
