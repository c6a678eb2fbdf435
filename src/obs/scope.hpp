// One instrumentation scope: the single RAII type every timed region
// opens.  A region registers its name once, as a ScopeSite, and each Scope
// built from that site does three things under the name:
//
//  * times the region into the `<name>.micros` histogram (metrics on);
//  * with tracing on, emits one `<name>` complete span carrying the
//    caller's args (keys, and string values, are interned here);
//  * under --perf, charges this thread's counter delta into the
//    `<name>.perf.*` rollup and appends the derived values (ipc_milli,
//    cache_miss_permille, task_clock_us) to its own span.
//
// So the naming convention lives in ScopeSite and the perf-before-span
// ordering in ~Scope, not at the call sites.  Like every obs layer, a
// scope never feeds results: records are byte-identical with metrics,
// tracing and perf on or off (tests/obs/).
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "obs/trace.hpp"
#include "obs/wall_timer.hpp"

namespace sysgo::obs {

/// A named timed region: registers `<name>.micros`, the nine
/// `<name>.perf.*` rollup metrics and the span name once, at construction.
/// Build one per call site (a member of the layer's file-local metrics
/// struct) and keep it for the process lifetime.
class ScopeSite {
 public:
  explicit ScopeSite(std::string_view name);

 private:
  friend class Scope;
  Histogram& micros_;
  perf::PerfRollup perf_;
  trace::NameId span_name_;
};

class Scope {
 public:
  explicit Scope(const ScopeSite& site) noexcept;
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope();

  /// Whether this scope will emit a span (tracing was on when it opened).
  /// Callers only need it to skip computing an expensive arg value.
  [[nodiscard]] bool traced() const noexcept { return traced_; }

  /// Span args, in call order; no-ops unless traced.  Args beyond
  /// trace::kMaxArgs are dropped, and the perf args come after the
  /// caller's.
  void arg(std::string_view key, std::int64_t value);
  void arg(std::string_view key, std::string_view value);

  /// Wall-clock milliseconds since the scope opened.
  [[nodiscard]] double millis() const noexcept { return timer_.millis(); }

 private:
  void push(trace::NameId key, std::int64_t value, bool is_string) noexcept;
  void charge_perf() noexcept;

  const ScopeSite& site_;
  const bool traced_;
  const bool perf_armed_;
  const std::uint64_t start_us_;
  perf::Sample perf_start_{};
  std::uint8_t argc_ = 0;
  std::array<trace::Arg, trace::kMaxArgs> args_{};
  WallTimer timer_;  // last: the perf read is not part of the region
};

}  // namespace sysgo::obs
