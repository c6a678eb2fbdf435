// Span tracing & flight recorder: the *when* and *why* companion to the
// metrics registry's *how much*.
//
// Every thread that records gets a private ring buffer ("lane") created on
// its first event; producers are single-writer and lock-free (one relaxed
// ring-slot write plus a seqlock stamp per event), and any thread may drain
// all lanes concurrently with recording — torn slots are detected by the
// per-slot sequence protocol and counted as dropped, never emitted.  The
// ring keeps only the last N events per lane, so always-on recording is a
// bounded-memory flight recorder: a failing run can dump its tail.
//
// Three event shapes:
//  * Complete — a span [ts, ts+dur) emitted once at span end (RAII
//    TraceSpan), carrying up to kMaxArgs key/value args.
//  * Instant  — a point event (store hit/miss/insert).
//  * Flow     — begin/end pairs sharing a flow id, rendered as arrows in
//    Chrome tracing (thread-pool submit → execute).
//
// Exporters: Chrome trace-event JSON (loadable in chrome://tracing and
// Perfetto; deterministic field ordering) and a compact binary
// flight-recorder format ("SYSGOFR1"); src/obs/trace_report.* parses both
// back and computes critical path / utilization / top-K without a browser.
//
// Tracing is OFF by default (--trace turns it on) and must never perturb
// results: instrumentation only ever branches on enabled(), and tests/obs/
// asserts records are byte-identical with tracing on and off.  See
// src/obs/README.md for the lane/seqlock design and ring sizing rules.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sysgo::obs::trace {

/// Global recording switch, default OFF.  Every instrumentation site pays
/// one relaxed atomic load when tracing is disabled; bench/trace_overhead
/// pins both the disabled and the actively-recording deltas.
[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Interned event/arg-key/string-value names.  Id 0 is the empty string.
/// Intern once per call site (function-local static) — the table takes a
/// mutex — and reuse the id on the hot path.
using NameId = std::uint32_t;
[[nodiscard]] NameId intern(std::string_view name);

/// Microseconds since the process-wide trace epoch (first use).  Backed by
/// steady_clock: monotonic across all lanes.
[[nodiscard]] std::uint64_t now_us() noexcept;

/// Ring capacity (events per lane) for lanes created AFTER this call;
/// rounded up to a power of two, default kDefaultRingCapacity.  Existing
/// lanes keep their rings — size before the run starts recording.
inline constexpr std::size_t kDefaultRingCapacity = 1u << 14;
void set_ring_capacity(std::size_t events_per_lane);

/// Name this thread's lane ("main", "pool0.worker2", ...).  May be called
/// before the lane exists (the name is applied on creation) or after.
/// Unnamed lanes render as "lane-<k>" in creation order.
void set_this_lane_name(std::string_view name);

/// Monotonic flow-arrow ids (never 0) pairing kFlowBegin with kFlowEnd.
[[nodiscard]] std::uint32_t next_flow_id() noexcept;

enum class EventKind : std::uint8_t {
  kComplete = 0,  // span: [ts_us, ts_us + dur_us)
  kInstant = 1,   // point event at ts_us
  kFlowBegin = 2, // arrow tail at ts_us (flow_id pairs it with its head)
  kFlowEnd = 3,   // arrow head at ts_us
};

// 8 fits str_mask's uint8 bit-per-arg exactly; the widest emitter is an
// engine task span under --perf (family/d/D/s + the three perf args).
inline constexpr std::size_t kMaxArgs = 8;

/// One event arg: interned key, and either a plain integer value or (when
/// the event's str_mask bit is set) an interned-string value id.
struct Arg {
  NameId key = 0;
  std::int64_t value = 0;
  bool is_string = false;
};

/// Drained event (also the payload layout of a ring slot).
struct Event {
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;   // kComplete only
  NameId name = 0;
  EventKind kind = EventKind::kInstant;
  std::uint8_t arg_count = 0;
  std::uint8_t str_mask = 0;  // bit i: arg_vals[i] is a string-table id
  std::uint32_t flow_id = 0;  // kFlowBegin/kFlowEnd only
  std::array<NameId, kMaxArgs> arg_keys{};
  std::array<std::int64_t, kMaxArgs> arg_vals{};
};

/// Record an event on this thread's lane (no-op when disabled).  `args`
/// beyond kMaxArgs are ignored.
void emit(EventKind kind, NameId name, std::uint64_t ts_us,
          std::uint64_t dur_us, std::uint32_t flow_id, const Arg* args,
          std::size_t arg_count) noexcept;

void instant(NameId name) noexcept;
void instant(NameId name, std::initializer_list<Arg> args) noexcept;
void flow_begin(NameId name, std::uint32_t flow_id) noexcept;
void flow_end(NameId name, std::uint32_t flow_id) noexcept;

/// RAII span: captures the start timestamp at construction and emits one
/// kComplete event at destruction.  Disabled tracing costs one branch; args
/// added on a disarmed span are dropped for free.
class TraceSpan {
 public:
  explicit TraceSpan(NameId name) noexcept
      : armed_(enabled()), name_(name), start_(armed_ ? now_us() : 0) {}
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() {
    if (!armed_) return;
    emit(EventKind::kComplete, name_, start_, now_us() - start_, 0,
         args_.data(), argc_);
  }

  [[nodiscard]] bool armed() const noexcept { return armed_; }

  void arg(NameId key, std::int64_t value) noexcept {
    if (!armed_ || argc_ >= kMaxArgs) return;
    args_[argc_++] = {key, value, false};
  }

  /// String-valued arg: `value` is an interned string id.
  void str_arg(NameId key, NameId value) noexcept {
    if (!armed_ || argc_ >= kMaxArgs) return;
    args_[argc_++] = {key, static_cast<std::int64_t>(value), true};
  }

 private:
  const bool armed_;
  const NameId name_;
  const std::uint64_t start_;
  std::uint8_t argc_ = 0;
  std::array<Arg, kMaxArgs> args_{};
};

// -------------------------------------------------------------------- drain

/// One lane's tail: events in emission order (per-lane end-timestamps are
/// monotonic — single producer on a monotonic clock), plus how many events
/// were lost to ring wraparound or torn by a concurrent overwrite.
struct LaneDump {
  std::string name;
  std::uint64_t dropped = 0;
  std::vector<Event> events;
};

/// A drained trace: the string table (NameId -> strings[NameId]) and every
/// lane in creation order.  Draining copies — recording continues unharmed.
struct TraceDump {
  std::vector<std::string> strings;
  std::vector<LaneDump> lanes;
};

[[nodiscard]] TraceDump drain();

/// Rewind every lane to empty (producers must be quiescent) and zero the
/// drop accounting.  Lanes, names, and the string table survive.  Tests and
/// bench arms only.
void reset_for_testing();

// ---------------------------------------------------------------- exporters

/// Chrome trace-event JSON: {"traceEvents": [...], "displayTimeUnit":"ms"}.
/// Lanes map to tids in creation order with thread_name metadata; field
/// order within an event object is fixed (ph, pid, tid, ts, dur, name, cat,
/// id, bp, s, args) and args keys render in recorded order, so the document
/// layout is deterministic.  Load in chrome://tracing or ui.perfetto.dev.
[[nodiscard]] std::string to_chrome_json(const TraceDump& dump);

/// Compact binary flight-recorder bytes (magic "SYSGOFR1", version 1):
/// string table + per-lane packed event arrays, little-endian fixed-width
/// fields.  ~5x smaller than the JSON and cheap enough to dump from a
/// crashing run's signal-free failure path.
[[nodiscard]] std::string to_flight_bytes(const TraceDump& dump);

/// Drain and atomically write to `path`: Chrome JSON when the path ends in
/// ".json", flight-recorder binary otherwise (the `--trace PATH` sink).
void write_trace_file(const std::string& path);

}  // namespace sysgo::obs::trace
