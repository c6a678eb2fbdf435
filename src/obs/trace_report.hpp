// Offline analysis of saved traces: parse Chrome trace-event JSON back
// into a TraceDump, then compute the numbers a CI log needs without a
// browser — critical path, per-worker utilization, span-duration top-K,
// and a per-stage breakdown table.  Backs `sysgo trace report PATH` and
// the round-trip tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace sysgo::obs::trace {

/// Parse a Chrome trace-event JSON document (the to_chrome_json schema;
/// tolerant of reordered fields and foreign events, such as other phases).
/// Lanes are keyed by tid in order of first appearance; thread_name
/// metadata names them; every phase but "X" (complete spans) and "M"
/// (metadata) is foreign and skipped.  Throws std::runtime_error on
/// malformed input, including a negative `ts` or `dur`.
[[nodiscard]] TraceDump parse_chrome_json(const std::string& json);

// ----------------------------------------------------------------- analysis

struct SpanRow {
  std::string name;
  std::string lane;
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
};

struct LaneUtilization {
  std::string name;
  std::size_t spans = 0;
  std::uint64_t busy_us = 0;  // union of complete-span intervals (nesting
                              // and overlap counted once)
  double utilization = 0.0;   // busy / trace wall-clock
};

struct StageRow {
  std::string name;
  std::size_t count = 0;
  std::uint64_t total_us = 0;
  std::uint64_t max_us = 0;
};

struct ReportOptions {
  std::size_t top_k = 10;
};

/// The derived view of one trace.  The critical path is the backward chain
/// from the latest-finishing span: each predecessor is the latest-ending
/// span that finished no later than the current span began (a deterministic
/// causal approximation — the chain shows what the run was waiting on;
/// gaps on it are moments when nothing was completing anywhere).
struct Report {
  std::uint64_t first_us = 0;
  std::uint64_t last_us = 0;   // max span end
  std::uint64_t wall_us = 0;   // last - first
  std::size_t span_count = 0;
  std::uint64_t dropped = 0;   // summed over lanes
  std::vector<LaneUtilization> lanes;       // creation order
  std::vector<StageRow> stages;             // by total_us, descending
  std::vector<SpanRow> top_spans;           // by dur_us, descending, top-K
  std::vector<SpanRow> critical_path;       // chronological
  std::uint64_t critical_busy_us = 0;       // sum of path durations
};

[[nodiscard]] Report analyze(const TraceDump& dump,
                             const ReportOptions& opts = {});

/// Fixed-layout text rendering (the `sysgo trace report` output).
[[nodiscard]] std::string report_text(const Report& report);

}  // namespace sysgo::obs::trace
