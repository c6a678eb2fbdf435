#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace_report.hpp"

namespace sysgo::obs::trace {
namespace {

/// Lanes are process-wide and never die, and gtest runs every suite in one
/// binary: each test records on freshly spawned threads with uniquely named
/// lanes, calls reset_for_testing() first to rewind older tests' events,
/// and reads only its own lanes out of the drain.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reset_for_testing();
    set_enabled(true);
  }
  void TearDown() override {
    set_enabled(false);
    reset_for_testing();
  }

  static const LaneDump* lane_named(const TraceDump& dump,
                                    const std::string& name) {
    for (const LaneDump& lane : dump.lanes)
      if (lane.name == name) return &lane;
    return nullptr;
  }

  /// A zero-length span with one integer arg, written straight to the ring.
  static void emit_span(NameId name, NameId key, std::int64_t value) {
    const Arg arg{key, value, false};
    emit(name, now_us(), 0, &arg, 1);
  }

  /// A span with an integer arg `a` and a string arg `s`.
  static void emit_span_with_args(NameId name) {
    const Arg args[] = {{intern("a"), 42, false},
                        {intern("s"), intern("value-string"), true}};
    const std::uint64_t start = now_us();
    emit(name, start, now_us() - start, args, 2);
  }
};

TEST_F(TraceTest, SpanRoundTripsThroughDrain) {
  const NameId span_name = intern("test.trace.span");
  std::thread([&] {
    set_this_lane_name("test-basic");
    emit_span_with_args(span_name);
  }).join();

  const TraceDump dump = drain();
  const LaneDump* lane = lane_named(dump, "test-basic");
  ASSERT_NE(lane, nullptr);
  EXPECT_EQ(lane->dropped, 0u);
  ASSERT_EQ(lane->events.size(), 1u);

  const Event& span = lane->events[0];
  EXPECT_EQ(dump.strings[span.name], "test.trace.span");
  ASSERT_EQ(span.arg_count, 2u);
  EXPECT_EQ(dump.strings[span.arg_keys[0]], "a");
  EXPECT_EQ(span.arg_vals[0], 42);
  EXPECT_FALSE((span.str_mask >> 0) & 1u);
  EXPECT_TRUE((span.str_mask >> 1) & 1u);
  EXPECT_EQ(dump.strings[static_cast<NameId>(span.arg_vals[1])],
            "value-string");
}

TEST_F(TraceTest, DisabledRecordingEmitsNothing) {
  set_enabled(false);
  const NameId name = intern("test.trace.disabled");
  std::thread([&] {
    set_this_lane_name("test-disabled");
    emit_span(name, name, 1);
  }).join();
  const LaneDump* lane = lane_named(drain(), "test-disabled");
  // The lane may not even exist (nothing recorded => no lane allocated).
  if (lane != nullptr) {
    EXPECT_TRUE(lane->events.empty());
  }
}

TEST_F(TraceTest, RingWraparoundKeepsTailAndCountsDropped) {
  set_ring_capacity(8);
  const NameId name = intern("test.trace.wrap");
  const NameId key = intern("i");
  constexpr int kEmitted = 100;
  std::thread([&] {
    set_this_lane_name("test-wrap");
    for (int i = 0; i < kEmitted; ++i) emit_span(name, key, i);
  }).join();
  set_ring_capacity(kDefaultRingCapacity);

  const TraceDump dump = drain();
  const LaneDump* lane = lane_named(dump, "test-wrap");
  ASSERT_NE(lane, nullptr);
  EXPECT_EQ(lane->events.size(), 8u);
  EXPECT_EQ(lane->dropped, static_cast<std::uint64_t>(kEmitted - 8));
  // The ring keeps the LAST events (flight-recorder semantics).
  for (std::size_t k = 0; k < lane->events.size(); ++k)
    EXPECT_EQ(lane->events[k].arg_vals[0],
              kEmitted - 8 + static_cast<std::int64_t>(k));
}

TEST_F(TraceTest, ConcurrentEmissionWithLiveDrainLosesNothing) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  const NameId name = intern("test.trace.stress");
  const NameId key = intern("seq");
  std::atomic<bool> stop{false};

  // Drain continuously while the producers hammer: drains must never crash,
  // tear an event, or perturb the producers' own accounting.
  std::thread drainer([&] {
    while (!stop.load(std::memory_order_acquire)) (void)drain();
  });

  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    producers.emplace_back([&, t] {
      set_this_lane_name("test-stress-" + std::to_string(t));
      for (int i = 0; i < kPerThread; ++i) emit_span(name, key, i);
    });
  for (auto& t : producers) t.join();
  stop.store(true, std::memory_order_release);
  drainer.join();

  const TraceDump dump = drain();
  for (int t = 0; t < kThreads; ++t) {
    const LaneDump* lane =
        lane_named(dump, "test-stress-" + std::to_string(t));
    ASSERT_NE(lane, nullptr) << "lane " << t;
    // Producers are quiescent now: every emitted event is either drained or
    // accounted as dropped (ring wraparound), never silently lost.
    EXPECT_EQ(lane->events.size() + lane->dropped,
              static_cast<std::uint64_t>(kPerThread))
        << "lane " << t;
    // The surviving tail is in emission order: seq args strictly increase
    // and per-lane timestamps are monotonic (single producer, steady clock).
    for (std::size_t k = 1; k < lane->events.size(); ++k) {
      EXPECT_LT(lane->events[k - 1].arg_vals[0], lane->events[k].arg_vals[0])
          << "lane " << t << " event " << k;
      EXPECT_LE(lane->events[k - 1].ts_us, lane->events[k].ts_us)
          << "lane " << t << " event " << k;
    }
    // No torn payload ever surfaces: every drained event is exactly one of
    // the values this lane wrote.
    for (const Event& e : lane->events) {
      EXPECT_EQ(e.name, name);
      EXPECT_EQ(e.arg_count, 1u);
      EXPECT_GE(e.arg_vals[0], 0);
      EXPECT_LT(e.arg_vals[0], kPerThread);
    }
  }
}

TEST_F(TraceTest, ChromeJsonRoundTripsThroughTheParser) {
  const NameId span_name = intern("test.trace.json.span");
  std::thread([&] {
    set_this_lane_name("test-json");
    emit_span_with_args(span_name);
    emit_span(span_name, intern("k"), 7);
  }).join();

  const TraceDump dump = drain();
  const std::string json = to_chrome_json(dump);
  const TraceDump back = parse_chrome_json(json);

  const LaneDump* orig = lane_named(dump, "test-json");
  const LaneDump* rt = lane_named(back, "test-json");
  ASSERT_NE(orig, nullptr);
  ASSERT_NE(rt, nullptr);
  ASSERT_EQ(rt->events.size(), orig->events.size());
  for (std::size_t i = 0; i < orig->events.size(); ++i) {
    const Event& a = orig->events[i];
    const Event& b = rt->events[i];
    EXPECT_EQ(a.ts_us, b.ts_us) << "event " << i;
    EXPECT_EQ(a.dur_us, b.dur_us) << "event " << i;
    EXPECT_EQ(dump.strings[a.name], back.strings[b.name]) << "event " << i;
    EXPECT_EQ(a.arg_count, b.arg_count) << "event " << i;
    EXPECT_EQ(a.str_mask, b.str_mask) << "event " << i;
    for (std::size_t k = 0; k < a.arg_count; ++k) {
      EXPECT_EQ(dump.strings[a.arg_keys[k]], back.strings[b.arg_keys[k]]);
      if ((a.str_mask >> k) & 1u) {
        EXPECT_EQ(dump.strings[static_cast<NameId>(a.arg_vals[k])],
                  back.strings[static_cast<NameId>(b.arg_vals[k])]);
      } else {
        EXPECT_EQ(a.arg_vals[k], b.arg_vals[k]);
      }
    }
  }
  // Every exported event is a complete span.
  EXPECT_EQ(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_EQ(json.find("\"ph\":\"f\""), std::string::npos);
}

TEST_F(TraceTest, ChromeJsonIsDeterministicForTheSameDump) {
  const NameId name = intern("test.trace.det");
  std::thread([&] {
    set_this_lane_name("test-det");
    emit_span(name, intern("k"), 1);
  }).join();
  const TraceDump dump = drain();
  EXPECT_EQ(to_chrome_json(dump), to_chrome_json(dump));
}

TEST_F(TraceTest, ParserRejectsGarbage) {
  EXPECT_THROW((void)parse_chrome_json("not json"), std::runtime_error);
  EXPECT_THROW((void)parse_chrome_json("{\"no\":\"events\"}"),
               std::runtime_error);
  // A negative dur or ts is malformed — not a huge unsigned duration.
  EXPECT_THROW((void)parse_chrome_json(
                   R"({"traceEvents":[{"ph":"X","tid":0,"ts":5,"dur":-10,)"
                   R"("name":"a"}]})"),
               std::runtime_error);
  EXPECT_THROW((void)parse_chrome_json(
                   R"({"traceEvents":[{"ph":"X","tid":0,"ts":-5,"dur":1,)"
                   R"("name":"a"}]})"),
               std::runtime_error);
  // Foreign phases — flow arrows and instants here, whatever their ids —
  // are skipped rather than rejected; only the span is read.
  const TraceDump dump = parse_chrome_json(
      R"({"traceEvents":[{"ph":"s","tid":0,"ts":5,"id":4294967296,)"
      R"("name":"a"},{"ph":"f","tid":0,"ts":6,"id":-1,"bp":"e","name":"a"},)"
      R"({"ph":"i","tid":0,"ts":6,"name":"b"},)"
      R"({"ph":"X","tid":0,"ts":7,"dur":2,"name":"c"}]})");
  ASSERT_EQ(dump.lanes.size(), 1u);
  ASSERT_EQ(dump.lanes[0].events.size(), 1u);
  EXPECT_EQ(dump.strings[dump.lanes[0].events[0].name], "c");
  EXPECT_EQ(dump.lanes[0].events[0].dur_us, 2u);
}

TEST(TraceReport, CriticalPathUtilizationAndStagesFromHandBuiltDump) {
  // Two lanes, microsecond layout:
  //   main:    [0, 100) "prepare"          [300, 400) "finish"
  //   worker:  [100, 250) "compute"  (gap) [260, 280) "compute"
  // Latest span is finish(400); its predecessor chain is compute[260,280]
  // -> compute[100,250] is NOT a predecessor of that (250 <= 260: it is)
  // -> prepare[0,100].  Wall-clock = 400.
  TraceDump dump;
  dump.strings = {"", "prepare", "compute", "finish"};
  const auto span = [](std::uint64_t ts, std::uint64_t dur, NameId name) {
    Event e;
    e.ts_us = ts;
    e.dur_us = dur;
    e.name = name;
    return e;
  };
  LaneDump main_lane;
  main_lane.name = "main";
  main_lane.events = {span(0, 100, 1), span(300, 100, 3)};
  LaneDump worker;
  worker.name = "worker";
  worker.events = {span(100, 150, 2), span(260, 20, 2)};
  dump.lanes = {main_lane, worker};

  const Report rep = analyze(dump);
  EXPECT_EQ(rep.wall_us, 400u);
  EXPECT_EQ(rep.span_count, 4u);

  ASSERT_EQ(rep.lanes.size(), 2u);
  EXPECT_EQ(rep.lanes[0].busy_us, 200u);  // 100 + 100
  EXPECT_EQ(rep.lanes[1].busy_us, 170u);  // 150 + 20
  EXPECT_DOUBLE_EQ(rep.lanes[0].utilization, 0.5);

  // Stages sort by total time: compute(170) < prepare(100)+finish(100)?
  // prepare=100, compute=170, finish=100 -> compute first.
  ASSERT_GE(rep.stages.size(), 3u);
  EXPECT_EQ(rep.stages[0].name, "compute");
  EXPECT_EQ(rep.stages[0].count, 2u);
  EXPECT_EQ(rep.stages[0].total_us, 170u);
  EXPECT_EQ(rep.stages[0].max_us, 150u);

  // Critical path: prepare -> compute[100,250] -> compute[260,280] ->
  // finish, chronological.
  ASSERT_EQ(rep.critical_path.size(), 4u);
  EXPECT_EQ(rep.critical_path[0].name, "prepare");
  EXPECT_EQ(rep.critical_path[1].name, "compute");
  EXPECT_EQ(rep.critical_path[1].dur_us, 150u);
  EXPECT_EQ(rep.critical_path[2].name, "compute");
  EXPECT_EQ(rep.critical_path[2].dur_us, 20u);
  EXPECT_EQ(rep.critical_path[3].name, "finish");
  EXPECT_EQ(rep.critical_busy_us, 100u + 150u + 20u + 100u);

  const std::string text = report_text(rep);
  EXPECT_NE(text.find("critical path"), std::string::npos);
  EXPECT_NE(text.find("per-worker utilization"), std::string::npos);
  EXPECT_NE(text.find("stage breakdown"), std::string::npos);
  EXPECT_NE(text.find("compute"), std::string::npos);
}

TEST(TraceReport, NestedSpansCountBusyTimeOnce) {
  TraceDump dump;
  dump.strings = {"", "outer", "inner"};
  Event outer;
  outer.ts_us = 0;
  outer.dur_us = 100;
  outer.name = 1;
  Event inner = outer;
  inner.ts_us = 20;
  inner.dur_us = 30;
  inner.name = 2;
  LaneDump lane;
  lane.name = "main";
  lane.events = {outer, inner};
  dump.lanes = {lane};
  const Report rep = analyze(dump);
  ASSERT_EQ(rep.lanes.size(), 1u);
  EXPECT_EQ(rep.lanes[0].busy_us, 100u);  // union, not 130
}

}  // namespace
}  // namespace sysgo::obs::trace
