#include "obs/scope.hpp"

#include <string>

namespace sysgo::obs {

namespace {

/// Derived ratio scaled to integer permille, guarded against zero
/// denominators (an unavailable counter group reads all-zero).
std::uint64_t permille(std::uint64_t num, std::uint64_t den) noexcept {
  return den > 0 ? num * 1000 / den : 0;
}

/// The perf arg keys, shared by every scope.
struct PerfArgKeys {
  trace::NameId ipc = trace::intern("ipc_milli");
  trace::NameId miss = trace::intern("cache_miss_permille");
  trace::NameId clock = trace::intern("task_clock_us");
};

const PerfArgKeys& perf_arg_keys() {
  static const PerfArgKeys keys;
  return keys;
}

}  // namespace

ScopeSite::ScopeSite(std::string_view name)
    : micros_(histogram(std::string(name) + ".micros")),
      perf_(std::string(name)),
      span_name_(trace::intern(name)) {}

Scope::Scope(const ScopeSite& site) noexcept
    : site_(site),
      traced_(trace::enabled()),
      perf_armed_(perf::enabled()),
      start_us_(traced_ ? trace::now_us() : 0),
      perf_start_(perf_armed_ ? perf::read_sample() : perf::Sample{}) {}

Scope::~Scope() {
  site_.micros_.record_micros(timer_.micros());
  if (perf_armed_) charge_perf();
  if (traced_)
    trace::emit(trace::EventKind::kComplete, site_.span_name_, start_us_,
                trace::now_us() - start_us_, 0, args_.data(), argc_);
}

void Scope::arg(std::string_view key, std::int64_t value) {
  if (traced_) push(trace::intern(key), value, false);
}

void Scope::arg(std::string_view key, std::string_view value) {
  if (traced_)
    push(trace::intern(key), static_cast<std::int64_t>(trace::intern(value)),
         true);
}

void Scope::push(trace::NameId key, std::int64_t value,
                 bool is_string) noexcept {
  if (argc_ >= args_.size()) return;
  args_[argc_++] = {key, value, is_string};
}

void Scope::charge_perf() noexcept {
  const perf::Sample end = perf::read_sample();
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return b > a ? b - a : 0;  // paranoia vs scaling jitter, never wraps
  };
  const std::uint64_t cycles = delta(perf_start_.cycles, end.cycles);
  const std::uint64_t instructions =
      delta(perf_start_.instructions, end.instructions);
  const std::uint64_t branch_misses =
      delta(perf_start_.branch_misses, end.branch_misses);
  const std::uint64_t cache_refs =
      delta(perf_start_.cache_refs, end.cache_refs);
  const std::uint64_t cache_misses =
      delta(perf_start_.cache_misses, end.cache_misses);
  const std::uint64_t task_clock_ns =
      delta(perf_start_.task_clock_ns, end.task_clock_ns);

  const perf::PerfRollup& rollup = site_.perf_;
  rollup.cycles.add(cycles);
  rollup.instructions.add(instructions);
  rollup.branch_misses.add(branch_misses);
  rollup.cache_refs.add(cache_refs);
  rollup.cache_misses.add(cache_misses);
  rollup.task_clock_us.add(task_clock_ns / 1000);

  const std::uint64_t ipc_milli = permille(instructions, cycles);
  const std::uint64_t cache_mpm = permille(cache_misses, cache_refs);
  if (cycles > 0) {
    rollup.ipc_milli.record_micros(ipc_milli);
    rollup.branch_miss_permille.record_micros(
        permille(branch_misses, instructions));
  }
  if (cache_refs > 0) rollup.cache_miss_permille.record_micros(cache_mpm);

  if (!traced_) return;
  const PerfArgKeys& keys = perf_arg_keys();
  if (cycles > 0) push(keys.ipc, static_cast<std::int64_t>(ipc_milli), false);
  if (cache_refs > 0)
    push(keys.miss, static_cast<std::int64_t>(cache_mpm), false);
  if (task_clock_ns > 0)
    push(keys.clock, static_cast<std::int64_t>(task_clock_ns / 1000), false);
}

}  // namespace sysgo::obs
