// Process-wide, low-overhead metrics registry.
//
// Three metric kinds, all safe for concurrent mutation from any thread:
//
//  * Counter   — monotonic; increments go to one of kShards cache-line-
//                padded relaxed atomics picked per thread, so hot paths pay
//                a single uncontended relaxed fetch_add.
//  * Gauge     — a level (set/add) or high-water mark (record_max); one
//                atomic, updated at event granularity, never in tight loops.
//  * Histogram — fixed power-of-two latency buckets over microseconds with
//                count/sum/min/max and interpolated p50/p90/p99 extraction;
//                sharded like counters.
//
// Metrics are registered by name on first use (counter("engine.cache.hits"))
// and live for the process lifetime — call sites hold a reference in a
// function-local static so steady-state cost is one branch + one relaxed
// atomic.  Timed regions do not record histograms by hand: an obs::Scope
// (obs/scope.hpp) records `<name>.micros` for its site.  Collection is
// globally toggleable (set_enabled); metrics NEVER feed computation
// results, so records are byte-identical either way — asserted by
// tests/obs/.
//
// snapshot() aggregates the shards into a name-sorted, deterministic view;
// to_json/to_csv render it (two snapshots of an idle registry are
// byte-identical).  See src/obs/README.md for the sharding design, the
// metric name catalog, and how to add a metric.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sysgo::obs {

/// Global collection switch (default on — steady-state overhead is a
/// relaxed atomic per event).  Off turns every record call into a no-op;
/// bench/obs_overhead pins the on-vs-off throughput delta under 2%.
[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Threads are assigned one of kShards slots round-robin on first use;
/// concurrent writers on distinct slots never touch the same cache line.
inline constexpr std::size_t kShards = 16;
[[nodiscard]] std::size_t this_thread_shard() noexcept;

// ------------------------------------------------------------------ Counter

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (!enabled()) return;
    shards_[this_thread_shard()].v.fetch_add(n, std::memory_order_relaxed);
  }

  /// Sum over shards (relaxed; exact once writers are quiescent).
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  void reset() noexcept {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Shard, kShards> shards_{};
};

// -------------------------------------------------------------------- Gauge

class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    if (!enabled()) return;
    v_.store(v, std::memory_order_relaxed);
  }

  void add(std::int64_t delta) noexcept {
    if (!enabled()) return;
    v_.fetch_add(delta, std::memory_order_relaxed);
  }

  /// Raise the gauge to v if v is larger (high-water tracking).
  void record_max(std::int64_t v) noexcept {
    if (!enabled()) return;
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (cur < v &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

// ---------------------------------------------------------------- Histogram

/// Fixed exponential buckets over microseconds: bucket 0 holds exactly 0µs,
/// bucket b >= 1 holds [2^(b-1), 2^b) µs; the top bucket absorbs overflow
/// (2^38µs ≈ 3 days).  Quantiles are linear interpolations inside the
/// covering bucket, clamped to the observed [min, max] — an estimate whose
/// error is bounded by the bucket width, which is all p99-style reporting
/// needs.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 40;

  void record_micros(std::uint64_t us) noexcept;

  /// Shard-aggregated view plus quantile extraction.
  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t sum_us = 0;
    std::uint64_t min_us = 0;  // 0 when count == 0
    std::uint64_t max_us = 0;
    std::array<std::uint64_t, kBuckets> buckets{};

    /// q in (0, 1]; 0 when the histogram is empty.  Deterministic: a pure
    /// function of the bucket counts and min/max.
    [[nodiscard]] double quantile_us(double q) const noexcept;
  };
  [[nodiscard]] Agg aggregate() const noexcept;

  void reset() noexcept;

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{~std::uint64_t{0}};
    std::atomic<std::uint64_t> max{0};
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
  };
  std::array<Shard, kShards> shards_{};
};

// ----------------------------------------------------------------- Registry

/// Look up (registering on first use) the named metric.  References stay
/// valid for the process lifetime; hold them in a function-local static at
/// hot call sites.  Names are independent per kind but the catalog keeps
/// them globally unique by convention ("layer.subsystem.event[.micros]").
[[nodiscard]] Counter& counter(std::string_view name);
[[nodiscard]] Gauge& gauge(std::string_view name);
[[nodiscard]] Histogram& histogram(std::string_view name);

// ----------------------------------------------------------------- Snapshot

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  std::int64_t value = 0;
};

struct HistogramSample {
  std::string name;
  Histogram::Agg agg;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
};

/// Deterministic-ordered (name-sorted per kind) view of every registered
/// metric.  Values are relaxed reads; exact once writers are quiescent.
struct Snapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

[[nodiscard]] Snapshot snapshot();

/// JSON document (schema in README "Observability"): {"sysgo_metrics": 1,
/// "counters": {...}, "gauges": {...}, "histograms": {name: {count, sum_us,
/// min_us, max_us, p50_us, p90_us, p99_us, buckets}}}.  Keys sorted; two
/// renders of the same state are byte-identical.
[[nodiscard]] std::string to_json(const Snapshot& snap);

/// CSV sink: "kind,name,value,count,sum_us,min_us,max_us,p50_us,p90_us,
/// p99_us" with empty cells where a column does not apply to the kind.
[[nodiscard]] std::string to_csv(const Snapshot& snap);

/// Snapshot and atomically write to `path` — CSV when the path ends in
/// ".csv", JSON otherwise (the `--metrics PATH` sink).
void write_metrics_file(const std::string& path);

/// Zero every registered metric (names stay registered).  Tests and the
/// overhead bench only; concurrent writers may interleave.
void reset_all();

}  // namespace sysgo::obs
