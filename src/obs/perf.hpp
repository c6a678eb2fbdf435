// Hardware/software performance-counter profiling: the *why fast / why
// slow* companion to the metrics registry's *how much* and the trace
// recorder's *when*.
//
// On Linux each recording thread lazily opens two `perf_event_open`
// counter groups:
//
//  * hardware — cycles (leader), instructions, branch-misses,
//    cache-references, cache-misses; read in one syscall with
//    PERF_FORMAT_GROUP and scaled by time_enabled/time_running so PMU
//    multiplexing cannot silently shrink the numbers.
//  * software — task-clock (leader), minor/major page faults; available
//    even where the hardware PMU is not (most containers and CI runners
//    expose no PMU: the hardware open fails with ENOENT/EACCES/EPERM).
//
// Degradation is graceful and per group: whatever fails to open is simply
// absent from every sample (its fields read 0 and the matching
// `available()` flag is false) — nothing throws, nothing logs per event,
// and on non-Linux builds the whole backend compiles to the no-op path.
//
// Collection is OFF by default (`--perf` turns it on).  An obs::Scope
// (obs/scope.hpp) reads this thread's groups when it opens and charges
// the delta when it closes into its site's `PerfRollup` — raw totals into
// counters (`<name>.perf.cycles`, `.instructions`, `.branch_misses`,
// `.cache_refs`, `.cache_misses`, `.task_clock_us`) and derived ratios
// into histograms (`<name>.perf.ipc_milli`: instructions-per-cycle x1000;
// `.cache_miss_permille` and `.branch_miss_permille`: misses per 1000
// references/instructions) — and puts the derived values on its span.
// Profiling must never perturb results: tests/obs/ asserts records are
// byte-identical with profiling on and off, and bench/obs_overhead pins
// the instrumented-path delta under 3%.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace sysgo::obs::perf {

/// Global collection switch, default OFF (the `--perf` flag).  Disabled
/// profiling costs one relaxed load per Scope.
[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Which counter groups this thread can actually open.  Probed once per
/// thread on first use (opening is lazy); stable for the thread lifetime.
struct Availability {
  bool hardware = false;  // cycles/instructions/branches/cache group
  bool software = false;  // task-clock/page-faults group
};
[[nodiscard]] Availability available();

/// One reading of this thread's counter groups (cumulative since the
/// groups were opened).  Fields from an unavailable group are zero.
struct Sample {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t branch_misses = 0;
  std::uint64_t cache_refs = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t task_clock_ns = 0;
  std::uint64_t minor_faults = 0;
  std::uint64_t major_faults = 0;
};

/// Read this thread's groups now (opening them on first call).  Returns a
/// zero sample when profiling is disabled or nothing opened.
[[nodiscard]] Sample read_sample();

/// Multiplexing correction: a counter scheduled on the PMU for
/// `running` of `enabled` nanoseconds extrapolates linearly.  Exposed for
/// the unit tests; running == 0 yields 0 (never a division by zero).
[[nodiscard]] std::uint64_t scale_value(std::uint64_t raw,
                                        std::uint64_t time_enabled,
                                        std::uint64_t time_running) noexcept;

/// The metric bundle a Scope charges into under `<prefix>.perf.*`; each
/// obs::ScopeSite owns one, so the names land in the --metrics snapshot
/// next to the site's latency histogram.
struct PerfRollup {
  explicit PerfRollup(const std::string& prefix);

  Counter& cycles;
  Counter& instructions;
  Counter& branch_misses;
  Counter& cache_refs;
  Counter& cache_misses;
  Counter& task_clock_us;
  Histogram& ipc_milli;             // instructions / cycles x 1000
  Histogram& cache_miss_permille;   // cache_misses / cache_refs x 1000
  Histogram& branch_miss_permille;  // branch_misses / instructions x 1000
};

}  // namespace sysgo::obs::perf
