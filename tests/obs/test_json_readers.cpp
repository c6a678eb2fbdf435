// The readers of sysgo's JSON documents against hostile input.  Seeded
// mutation tests: every mutated Chrome trace and every mutated committed
// BENCH_*.json must either be rejected with std::runtime_error or parse
// into a value the consumers accept (analyze() and to_chrome_json() for a
// trace; compare() and render_report() for a bench snapshot).  Anything
// else — std::bad_alloc, an out-of-range read, a stray exception type —
// fails the test.  And the shared obs/json reader caps its nesting depth,
// so a deeply nested document is an error instead of a stack overflow.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/bench_compare.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "obs/trace_report.hpp"
#include "../mutation.hpp"

namespace sysgo::obs {
namespace {

using test::run_mutations;

/// Two lanes of spans with numeric and string args and a dropped count —
/// the shapes a recorded sweep trace holds.
trace::TraceDump sample_dump() {
  using trace::Event;
  trace::TraceDump dump;
  dump.strings = {"", "engine.task.simulate", "synth.restart", "family", "db",
                  "restart"};
  const auto event = [](std::uint64_t ts, std::uint64_t dur,
                        trace::NameId name) {
    Event e;
    e.ts_us = ts;
    e.dur_us = dur;
    e.name = name;
    return e;
  };
  Event task = event(10, 400, 1);
  task.arg_count = 2;
  task.arg_keys = {3, 5};
  task.arg_vals = {4, 7};
  task.str_mask = 1;  // arg 0 is the string "db"
  Event restart = event(120, 90, 2);
  restart.arg_count = 1;
  restart.arg_keys[0] = 5;
  restart.arg_vals[0] = 3;

  trace::LaneDump main_lane;
  main_lane.name = "main";
  main_lane.events = {task, event(300, 5, 2)};
  trace::LaneDump worker;
  worker.name = "pool-0";
  worker.dropped = 2;
  worker.events = {restart, event(220, 50, 1)};
  dump.lanes = {main_lane, worker};
  return dump;
}

TEST(TraceMutation, ChromeJsonRejectsCleanlyOrRoundTrips) {
  run_mutations(trace::to_chrome_json(sample_dump()), 0x15011ULL, "trace",
                [](const std::string& text) {
                  try {
                    const trace::TraceDump dump = trace::parse_chrome_json(text);
                    (void)trace::report_text(trace::analyze(dump));
                    (void)trace::to_chrome_json(dump);
                    return true;
                  } catch (const std::runtime_error&) {
                    return false;
                  }
                });
}

std::string read_source_file(const std::string& relative) {
  std::ifstream in(std::string(SYSGO_SOURCE_DIR) + "/" + relative);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(BenchMutation, CommittedSnapshotsRejectCleanlyOrCompare) {
  std::uint64_t seed = 0xbe4c7ULL;
  for (const char* file :
       {"BENCH_search_throughput.json", "BENCH_simulate_throughput.json",
        "BENCH_synth_throughput.json"}) {
    const std::string text = read_source_file(file);
    ASSERT_FALSE(text.empty()) << file;
    const bench::BenchSnapshot committed = bench::parse_snapshot(text);
    bench::CompareOptions opts;
    opts.allow_context_mismatch = true;  // a mutated context is not a crash
    run_mutations(text, seed++, file, [&](const std::string& input) {
      try {
        const bench::BenchSnapshot snap = bench::parse_snapshot(input);
        (void)bench::render_report(bench::compare(committed, snap, opts),
                                   opts);
        (void)bench::render_report(bench::compare(snap, committed, opts),
                                   opts);
        return true;
      } catch (const std::runtime_error&) {
        return false;
      }
    });
  }
}

std::string nested_arrays(int depth) {
  return std::string(static_cast<std::size_t>(depth), '[') +
         std::string(static_cast<std::size_t>(depth), ']');
}

TEST(JsonDepth, NestingToTheCapParses) {
  json::Value v = json::parse(nested_arrays(json::kMaxDepth));
  for (int d = 1; d < json::kMaxDepth; ++d) {
    ASSERT_EQ(v.items.size(), 1u) << "depth " << d;
    v = json::Value(v.items[0]);
  }
  EXPECT_EQ(v.kind, json::Value::Kind::kArray);
  EXPECT_TRUE(v.items.empty());
  EXPECT_NO_THROW(
      (void)json::parse(std::string(json::kMaxDepth - 1, '[') + "{}" +
                        std::string(json::kMaxDepth - 1, ']')));
}

TEST(JsonDepth, DeeperNestingThrowsNamingTheOffset) {
  try {
    (void)json::parse(nested_arrays(json::kMaxDepth + 1));
    FAIL() << "nesting past the cap parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("json: nesting deeper than 256 at "
                                         "byte 256"),
              std::string::npos)
        << e.what();
  }
  // A million levels: an error, not a stack overflow — through both
  // document readers, too.
  const std::string deep(1'000'000, '[');
  EXPECT_THROW((void)json::parse(deep), std::runtime_error);
  EXPECT_THROW((void)trace::parse_chrome_json("{\"traceEvents\":" + deep),
               std::runtime_error);
  EXPECT_THROW((void)bench::parse_snapshot(deep), std::runtime_error);
}

}  // namespace
}  // namespace sysgo::obs
