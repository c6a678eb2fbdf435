// Shared wall-clock timer: the one place steady_clock arithmetic lives.
//
// Every call site that used to hand-roll
// `duration<double, milli>(steady_clock::now() - t0).count()` (engine job
// timing, synthesizer budgets, CLI progress ETA) constructs a WallTimer
// instead; obs::Scope builds on it to feed latency histograms.
#pragma once

#include <chrono>
#include <cstdint>

namespace sysgo::obs {

class WallTimer {
 public:
  WallTimer() noexcept : t0_(Clock::now()) {}

  void reset() noexcept { t0_ = Clock::now(); }

  /// Elapsed wall-clock milliseconds (fractional).
  [[nodiscard]] double millis() const noexcept {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0_)
        .count();
  }

  /// Elapsed wall-clock microseconds, truncated.
  [[nodiscard]] std::uint64_t micros() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              t0_)
            .count());
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point t0_;
};

}  // namespace sysgo::obs
