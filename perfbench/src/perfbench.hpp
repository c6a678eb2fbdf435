// perfbench: the end-to-end benchmark of the sysgo commands users wait on
// (sweep, solve, synth).  One process runs one named workload through the
// path the CLI takes — the job list the matching `sysgo` command builds,
// executed by engine::SweepRunner on one lane, records rendered through
// io's CSV writer — and reports end-to-end metrics (untraced) or per-layer
// metrics (a separate traced replay of the same layer calls).
//
// See perfbench/README.md for why each workload exists and for the
// measurement rules (serial lanes, in-process setup timing).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "engine/scenario.hpp"
#include "engine/sweep.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

/// The CLI's default --seed (topology::kDefaultTopologySeed).
inline constexpr std::uint64_t kDefaultSeed = 1402446108ULL;

/// A named workload: the job list and limits the matching sysgo command
/// builds.  `seeded` is false for workloads whose inputs do not depend on
/// the seed (deterministic families, exact search).
struct Workload {
  std::string name;
  std::string command;  // the equivalent `sysgo` invocation
  bool seeded = false;
  std::vector<sysgo::engine::SweepJob> jobs;
  sysgo::engine::ExecutionLimits limits;
  /// solve_mix and solve_synth: one metric label per solve job (e.g.
  /// "c7_half_gossip"); the solve jobs come first in the job list.
  std::vector<std::string> instance_names;
};

[[nodiscard]] const std::vector<std::string>& workload_names();
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name);

/// Whether a job's result depends on the seed: the member graph of a
/// random family (rr, gnp), or the synthesizer's restart streams.
[[nodiscard]] bool job_uses_seed(const sysgo::engine::SweepJob& job);

/// Seed of pass k of a run: the run's seed for pass 0, independent derived
/// streams after it, so a seeded workload averages over several inputs
/// while pass 0 stays comparable with the golden records.
[[nodiscard]] std::uint64_t pass_seed(std::uint64_t seed, std::size_t pass);

/// Process CPU time (user + sys, all threads) in seconds.
[[nodiscard]] double process_cpu_s();
/// Monotonic wall clock in seconds (arbitrary epoch).
[[nodiscard]] double wall_now_s();

// ------------------------------------------------------------- engine pass

/// One untraced execution of a workload through engine::SweepRunner.
struct PassResult {
  std::uint64_t seed = 0;
  std::vector<sysgo::engine::SweepRecord> records;
  std::string csv;  // the rendered output, as `sysgo` would print it
  double wall_s = 0.0;  // first job dispatched -> last record rendered
  double cpu_s = 0.0;   // process CPU over the same span
  sysgo::engine::ArtifactCache::Stats cache{};
  double dispatch_at_s = 0.0;  // wall_now_s() when the first job dispatched
  std::string error;  // non-empty when run_jobs threw
};

/// Build a fresh SweepRunner the way the CLI does (one lane, artifact
/// cache on, each finished record rendered through io's CSV writer) and
/// run the workload at `seed`.  With dispatch = false it stops at the
/// point the first job would be dispatched (the set-up probe).
[[nodiscard]] PassResult run_engine_pass(const Workload& w, std::uint64_t seed,
                                         bool dispatch = true);

// ------------------------------------------------------------------ golden

/// Golden records: the sweep CSV columns minus the wall-clock `millis`.
struct Golden {
  std::vector<std::string> rows;  // one per job, in job order
};

/// The golden header line (sweep CSV columns without millis).
[[nodiscard]] std::string golden_header();
/// A record as a golden row: its sweep CSV row without millis or newline.
[[nodiscard]] std::string golden_row(const sysgo::engine::SweepRecord& r);
/// Parse a golden document: the header line, then one row per record.
/// '#' lines and blank lines are skipped.  Throws std::invalid_argument on
/// a missing/mismatched header or a row with the wrong column count.
[[nodiscard]] Golden parse_golden(const std::string& text);

// ------------------------------------------------------------------ checks

/// Per-job verdicts of one pass: empty string = ok, else the reason.
/// Checks every record for throws and sentinels, simulated rounds against
/// the audit's certified bound per member, synth rounds against the
/// edge-colouring schedule's gossip time, and — when `golden` is given —
/// equality with the golden rows.
[[nodiscard]] std::vector<std::string> check_pass(const Workload& w,
                                                  const PassResult& pass,
                                                  const Golden* golden);

/// Whether a job's golden row applies to a pass run at `seed`: always for
/// a job whose result does not depend on the seed, only at the default
/// seed otherwise.
[[nodiscard]] bool golden_applies(const sysgo::engine::SweepJob& job,
                                  std::uint64_t seed);

/// Attempted / failed job accounting behind fail_ratio.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> reasons;  // the first few failure reasons

  void add(const std::vector<std::string>& verdicts);
  /// A failure outside any one job (e.g. a thrown pass): counts `jobs`.
  void fail_all(std::size_t jobs, const std::string& reason);
  [[nodiscard]] double fail_ratio() const;
  [[nodiscard]] bool correct() const { return attempted > 0 && failed == 0; }
};

/// Sum of the rounds of the schedules a pass produced: simulated gossip
/// time of each edge-colouring schedule (sweep), each exact optimum
/// (solve), each synthesized schedule (synth).  Audit lower bounds and
/// sentinels are not schedules and are skipped.
[[nodiscard]] double schedule_rounds(const PassResult& pass);

// ------------------------------------------------------------------- stats

[[nodiscard]] double median(std::vector<double> v);

/// Share of histogram samples >= threshold, from the bucket counts alone.
/// obs::Histogram bucket b >= 1 holds [2^(b-1), 2^b), so for a power-of-two
/// threshold the samples at or above it are exactly buckets
/// bit_width(threshold) and up.  Throws std::invalid_argument for a
/// threshold that is not a power of two.  0 for an empty histogram.
[[nodiscard]] double share_at_or_above(const sysgo::obs::Histogram::Agg& agg,
                                       std::uint64_t threshold);

/// agg_after - agg_before for count, sum and buckets (min/max are lifetime
/// values and are taken from `after`).
[[nodiscard]] sysgo::obs::Histogram::Agg histogram_delta(
    const sysgo::obs::Histogram::Agg& before,
    const sysgo::obs::Histogram::Agg& after);

/// Look up a program metric by name in a snapshot; std::nullopt when the
/// program no longer registers it.
[[nodiscard]] std::optional<std::uint64_t> find_counter(
    const sysgo::obs::Snapshot& snap, const std::string& name);
[[nodiscard]] std::optional<sysgo::obs::Histogram::Agg> find_histogram(
    const sysgo::obs::Snapshot& snap, const std::string& name);

// ----------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// An ordered metric list plus the names that could not be measured.
struct MetricSet {
  std::vector<Metric> metrics;
  std::vector<std::string> absent;

  void put(const std::string& name, double value, const std::string& unit);
};

/// `{"name": {"value": v, "unit": "u"}, ...}` with full precision.
[[nodiscard]] std::string metrics_json(const MetricSet& set);

// ------------------------------------------------------------- traced run

/// Result of the traced invocation: every per-layer metric plus the spans.
struct TracedReport {
  MetricSet layers;
  std::string chrome_json;  // the recorded spans as Chrome trace events
  double untraced_wall_s = 0.0;  // median untraced pass wall
  double layer_busy_s = 0.0;     // summed layer busy time (same medians)
  std::size_t pairs = 0;         // untraced/traced pass pairs run
};

/// Alternate untraced engine passes and traced layer replays (same seed per
/// pair) until `seconds` elapse, checking every pass into `tally`.
[[nodiscard]] TracedReport run_traced(const Workload& w, std::uint64_t seed,
                                      double seconds, const Golden* golden,
                                      Tally& tally);

}  // namespace perfbench
