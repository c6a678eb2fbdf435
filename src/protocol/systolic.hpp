// Systolic schedules: a periodic sequence of rounds repeated for as long as
// needed (Definition 3.2).  The one authoring form: a finite t-round
// protocol ⟨A_1 … A_t⟩ is the schedule whose period is those t rounds, run
// with a cap of t rounds, so it never wraps.
#pragma once

#include "protocol/protocol.hpp"

namespace sysgo::protocol {

struct SystolicSchedule {
  int n = 0;
  Mode mode = Mode::kHalfDuplex;
  std::vector<Round> period;

  [[nodiscard]] int period_length() const noexcept {
    return static_cast<int>(period.size());
  }
};

}  // namespace sysgo::protocol
