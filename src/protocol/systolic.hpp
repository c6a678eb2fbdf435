// Systolic schedules: a periodic sequence of rounds repeated for as long as
// needed (Definition 3.2).  Schedules are the natural protocol authoring
// unit; expand() turns them into a finite Protocol.
#pragma once

#include <stdexcept>

#include "protocol/protocol.hpp"

namespace sysgo::protocol {

struct SystolicSchedule {
  int n = 0;
  Mode mode = Mode::kHalfDuplex;
  std::vector<Round> period;

  [[nodiscard]] int period_length() const noexcept {
    return static_cast<int>(period.size());
  }

  /// The round active at (1-based) time step i.  An empty period has no
  /// rounds to cycle through (i % 0 would be UB): fail loudly.
  [[nodiscard]] const Round& round_at(int i) const {
    if (period.empty())
      throw std::logic_error("SystolicSchedule::round_at: empty period");
    return period[static_cast<std::size_t>((i - 1) % period_length())];
  }

  /// Materialize the first t rounds as a Protocol.
  [[nodiscard]] Protocol expand(int t) const;
};

/// Structural validation of every round in the period (and membership in g
/// when provided); an empty period fails.  Like the Protocol overload, this
/// is CompiledSchedule::compile's verdict.
[[nodiscard]] ValidationResult validate_structure(const SystolicSchedule& s,
                                                  const graph::Digraph* g = nullptr);

}  // namespace sysgo::protocol
